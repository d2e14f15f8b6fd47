#include "app/web_server.hh"

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
    Socket *sock = k.sockFromFd(ps.proc, fd);
    if (!sock)
        return t;   // already closed earlier in this loop iteration

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
        if (!keepAlive_ || r.connClose) {
            // keep-alive off (or the request said "Connection: close"):
            // active close right after the response.
            admRelease(ps.proc, fd);
            t = k.close(ps.proc, t, fd);
        } else if (r.finSeen) {
            admRelease(ps.proc, fd);
            t = k.close(ps.proc, t, fd);
        }
    } else if (r.finSeen) {
        // Client closed (keep-alive) or went away before the request.
        admRelease(ps.proc, fd);
        t = k.close(ps.proc, t, fd);
    }
    return t;
}

} // namespace fsim
