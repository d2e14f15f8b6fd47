#include "app/proxy.hh"

#include "sim/logging.hh"
#include "trace/trace_scope.hh"

namespace fsim
{

namespace
{

/** Backend retries after the first attempt before a session fails. */
constexpr int kMaxRetries = 2;
/** Consecutive failures that eject a backend from rotation. */
constexpr int kEjectThreshold = 3;

} // anonymous namespace

Proxy::Proxy(Machine &m, std::vector<IpAddr> backends, Port backend_port,
             std::uint32_t response_bytes)
    : AppBase(m), backends_(std::move(backends)),
      backendPort_(backend_port), responseBytes_(response_bytes)
{
    fsim_assert(!backends_.empty());
    health_.resize(backends_.size());
}

Tick
Proxy::serviceCost() const
{
    return m_.costs().appServiceProxy;
}

Tick
Proxy::closeSession(ProcState &ps, Session *s, Tick t)
{
    KernelStack &k = m_.kernel();
    if (s->backendFd >= 0) {
        sessions_.erase(skey(ps.proc, s->backendFd));
        t = k.close(ps.proc, t, s->backendFd);
    }
    if (s->clientFd >= 0) {
        sessions_.erase(skey(ps.proc, s->clientFd));
        admRelease(ps.proc, s->clientFd);
        t = k.close(ps.proc, t, s->clientFd);
    }
    byId_.erase(s->id);
    sessionSlab_.release(s);
    return t;
}

std::size_t
Proxy::pickBackend()
{
    // Plain rotation, skipping ejected backends. An ejected backend whose
    // sit-out elapsed is readmitted half-open: it gets real traffic again
    // but one more failure re-ejects it immediately.
    const std::size_t n = backends_.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t bi = backendCursor_++ % n;
        Health &h = health_[bi];
        if (!h.ejected)
            return bi;
        if (m_.eventQueue().now() >= h.retryAt) {
            h.ejected = false;
            h.consecFails = kEjectThreshold - 1;
            ++backendReadmissions_;
            return bi;
        }
    }
    // Everything ejected: no better choice than plain rotation.
    return backendCursor_++ % n;
}

void
Proxy::noteBackendFailure(std::size_t bi)
{
    Health &h = health_[bi];
    ++h.consecFails;
    if (!h.ejected && h.consecFails >= kEjectThreshold) {
        h.ejected = true;
        h.retryAt = m_.eventQueue().now() + 4 * backendTimeout_;
        ++backendEjections_;
    }
}

Tick
Proxy::connectBackend(ProcState &ps, Session *s, Tick t)
{
    KernelStack &k = m_.kernel();
    std::size_t bi = pickBackend();
    ++s->attempts;
    s->backendIdx = bi;
    KernelStack::ConnectResult cr =
        k.connect(ps.proc, t, backends_[bi], backendPort_);
    t = cr.t;
    if (!cr.sock) {
        ++connectFailures_;
        return closeSession(ps, s, t);
    }
    s->backendFd = cr.fd;
    s->phase = Phase::kBackendConnect;
    *sessions_.insert(skey(ps.proc, cr.fd), s).first = s;
    t = k.epollAdd(ps.proc, t, cr.fd);
    if (backendTimeout_ > 0)
        armBackendTimeout(s->id);
    return t;
}

void
Proxy::armBackendTimeout(std::uint64_t sid)
{
    // A live session is still on the attempt that armed this timeout:
    // only the timeout's own recovery starts the next attempt.
    m_.eventQueue().scheduleIn(backendTimeout_, [this, sid] {
        Session *const *found = byId_.find(sid);
        if (!found)
            return;   // session finished in time
        Session *s = *found;
        ++backendTimeouts_;
        // The timeout fires in "kernel event" context; the proxy reacts
        // from process context, so post the recovery work to the owning
        // core where it is cycle-accounted like any other app work.
        ProcState &ps = procs_.at(s->procIdx);
        m_.cpu().post(ps.core, TaskPrio::kProcess,
                      [this, sid](Tick start) {
                          return onBackendTimeout(sid, start);
                      });
    });
}

Tick
Proxy::onBackendTimeout(std::uint64_t sid, Tick t)
{
    Session *const *found = byId_.find(sid);
    if (!found)
        return t;   // raced with completion
    Session *s = *found;
    ProcState &ps = procs_.at(s->procIdx);
    if (!m_.kernel().process(ps.proc).alive)
        return t;   // its exit already closed both fds
    return failAttempt(ps, s, t);
}

Tick
Proxy::failAttempt(ProcState &ps, Session *s, Tick t)
{
    KernelStack &k = m_.kernel();
    noteBackendFailure(s->backendIdx);
    if (s->backendFd >= 0) {
        // Abandon the failed backend connection.
        sessions_.erase(skey(ps.proc, s->backendFd));
        t = k.close(ps.proc, t, s->backendFd);
        s->backendFd = -1;
    }
    if (s->attempts > kMaxRetries) {
        ++sessionFailures_;
        return closeSession(ps, s, t);
    }
    ++backendRetries_;
    StageScope sc(&m_.tracer(), ps.core, t);
    sc.bind(k.sockFromFd(ps.proc, s->clientFd)->id, ConnStage::kAppProcess);
    t = sc.close(t + serviceCost() / 2);   // re-dispatch decision
    return connectBackend(ps, s, t);
}

Tick
Proxy::onConnReadable(ProcState &ps, int fd, Tick t)
{
    KernelStack &k = m_.kernel();
    Socket *sock = k.sockFromFd(ps.proc, fd);
    if (!sock)
        return t;

    Session *const *found = sessions_.find(skey(ps.proc, fd));
    Session *s = nullptr;
    if (!found) {
        // First event on a freshly accepted client connection.
        s = sessionSlab_.alloc();
        *s = Session{};
        s->id = nextSessionId_++;
        s->procIdx = static_cast<std::size_t>(&ps - procs_.data());
        s->clientFd = fd;
        sessions_.insert(skey(ps.proc, fd), s);
        byId_.insert(s->id, s);
    } else {
        s = *found;
    }

    if (fd == s->clientFd) {
        KernelStack::ReadResult r = k.read(ps.proc, t, fd);
        t = r.t;
        if (r.bytes > 0 && s->backendFd < 0) {
            // Got the request: pick a backend and connect (non-blocking).
            s->requestBytes = r.bytes;
            StageScope sc(&m_.tracer(), ps.core, t);
            sc.bind(sock->id, ConnStage::kAppProcess);
            t = sc.close(t + serviceCost());
            return connectBackend(ps, s, t);
        } else if (r.finSeen && r.bytes == 0) {
            // Client hung up.
            return closeSession(ps, s, t);
        }
        return t;
    }

    // Backend fd.
    if (s->phase == Phase::kBackendConnect) {
        // Refused: the backend answered the SYN with an RST. An armed
        // timeout ends this attempt; without one nothing else would.
        if (sock->state == TcpState::kClosed && backendTimeout_ == 0)
            return failAttempt(ps, s, t);
        if (sock->state == TcpState::kEstablished) {
            // Connect completed: forward the request.
            t = k.write(ps.proc, t, fd, s->requestBytes);
            s->phase = Phase::kBackendWait;
        }
        if (sock->rxPending == 0 && !sock->peerFin)
            return t;
        // Fall through when the response already raced in.
    }

    KernelStack::ReadResult r = k.read(ps.proc, t, fd);
    t = r.t;
    if (r.bytes > 0) {
        // Relay the response to the client and tear the session down:
        // passive close toward the backend (it FINed with the response),
        // active close toward the client.
        health_[s->backendIdx].consecFails = 0;
        std::uint32_t respBytes = responseBytes_;
        if (connDegraded(ps.proc, s->clientFd)) {
            // Brownout: relay a trimmed response to shed downstream work.
            if (admCfg_)
                respBytes = admCfg_->brownoutBytes;
            ++servedDegraded_;
        }
        t = k.write(ps.proc, t, s->clientFd, respBytes);
        ++served_;
        return closeSession(ps, s, t);
    }
    if (r.finSeen) {
        // Backend closed without data: give up on the session.
        return closeSession(ps, s, t);
    }
    return t;
}

} // namespace fsim
