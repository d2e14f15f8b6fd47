#include "app/web_server.hh"

#include "sim/logging.hh"
#include "trace/trace_scope.hh"

namespace fsim
{

WebServer::WebServer(Machine &m, std::uint32_t response_bytes,
                     bool keep_alive)
    : AppBase(m), responseBytes_(response_bytes), keepAlive_(keep_alive)
{
}

Tick
WebServer::serviceCost() const
{
    return m_.costs().appServiceWeb;
}

Tick
WebServer::onConnReadable(ProcState &ps, int fd, Tick t)
{
    KernelStack &k = m_.kernel();
    // A ready fd appears once per loop round and only this handler
    // closes a connection, so the fd is still open.
    Socket *sock = k.sockFromFd(ps.proc, fd);
    fsim_assert(sock != nullptr);

    KernelStack::ReadResult r = k.read(ps.proc, t, fd);
    t = r.t;

    if (r.bytes > 0) {
        // Parse request + build response from the in-memory cache. Under
        // brownout the degraded page is smaller and cheaper to build.
        bool degraded = connDegraded(ps.proc, fd);
        Tick cost = serviceCost();
        std::uint32_t respBytes = responseBytes_;
        if (degraded && admCfg_) {
            cost /= admCfg_->brownoutCostDivisor;
            respBytes = admCfg_->brownoutBytes;
        }
        StageScope sc(&m_.tracer(), ps.core, t);
        sc.bind(sock->id, ConnStage::kAppProcess);
        t = sc.close(t + cost);
        t = k.write(ps.proc, t, fd, respBytes);
        ++served_;
        if (degraded)
            ++servedDegraded_;
    }
    // Close right after the response when keep-alive is off or the
    // request said "Connection: close", and whenever the client closed
    // (keep-alive) or went away before the request.
    if (r.finSeen || (r.bytes > 0 && (!keepAlive_ || r.connClose))) {
        admRelease(ps.proc, fd);
        t = k.close(ps.proc, t, fd);
    }
    return t;
}

} // namespace fsim
