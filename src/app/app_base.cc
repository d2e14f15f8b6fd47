#include "app/app_base.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fsim
{

namespace
{

/** Insert @p fd into a sorted-unique vector (no-op if present). */
void
sortedInsert(std::vector<int> &v, int fd)
{
    auto pos = std::lower_bound(v.begin(), v.end(), fd);
    if (pos == v.end() || *pos != fd)
        v.insert(pos, fd);
}

/** Erase @p fd from a sorted-unique vector (no-op if absent). */
void
sortedErase(std::vector<int> &v, int fd)
{
    auto pos = std::lower_bound(v.begin(), v.end(), fd);
    if (pos != v.end() && *pos == fd)
        v.erase(pos);
}

} // namespace


AppBase::AppBase(Machine &m)
    : m_(m)
{
}

AppBase::~AppBase() = default;

void
AppBase::setAdmission(AdmissionController *adm, const OverloadConfig *cfg)
{
    adm_ = adm;
    admCfg_ = cfg;
}

bool
AppBase::connDegraded(int proc, int fd) const
{
    auto it = admState_.find(admKey(proc, fd));
    return it != admState_.end() && it->second;
}

void
AppBase::admRelease(int proc, int fd)
{
    auto it = admState_.find(admKey(proc, fd));
    if (it == admState_.end())
        return;
    admState_.erase(it);
    if (adm_)
        adm_->release(proc);
}

void
AppBase::start()
{
    KernelStack &k = m_.kernel();
    const KernelConfig &kc = m_.config().kernel;

    procs_.resize(m_.numCores());
    for (int c = 0; c < m_.numCores(); ++c) {
        ProcState &ps = procs_[c];
        ps.proc = k.addProcess(c);
        ps.core = c;
    }

    // The parent listens first (creating the global listen sockets), then
    // each child registers: a reuseport clone (3.13), a shared watcher
    // (baseline), or a local_listen() clone (Fastsocket).
    for (ProcState &ps : procs_) {
        for (IpAddr addr : m_.addrs()) {
            int fd = k.listen(ps.proc, addr, m_.servicePort());
            sortedInsert(ps.listenFds, fd);
            if (kc.localListen)
                k.localListen(ps.proc, addr, m_.servicePort());
        }
    }

    k.onProcessReady = [this](int proc, bool remote) {
        wake(proc, remote);
    };
}

void
AppBase::wake(int proc, bool remote)
{
    fsim_assert(proc >= 0 &&
                static_cast<std::size_t>(proc) < procs_.size());
    ProcState &ps = procs_[proc];
    ps.remoteWake = ps.remoteWake || remote;
    if (ps.wakePending)
        return;
    ps.wakePending = true;
    std::size_t idx = static_cast<std::size_t>(proc);
    m_.cpu().post(ps.core, TaskPrio::kProcess, [this, idx](Tick start) {
        return runLoop(idx, start);
    });
}

Tick
AppBase::onAccepted(ProcState &ps, int fd, Tick t)
{
    return m_.kernel().epollAdd(ps.proc, t, fd);
}

Tick
AppBase::runLoop(std::size_t idx, Tick start)
{
    ProcState &ps = procs_[idx];
    ps.wakePending = false;
    KernelStack &k = m_.kernel();

    // Scheduler wakeup cost; a cross-core wake pays the IPI + resched.
    Tick t = start + (ps.remoteWake ? m_.costs().schedWakeRemote
                                    : m_.costs().schedWakeLocal);
    ps.remoteWake = false;
    // Sticky scratch: the event loop runs once per wakeup, thousands of
    // times per simulated second; a fresh vector each round is exactly
    // the steady-state allocator churn the audit test forbids.
    std::vector<int> &fds = ps.fdScratch;
    fds.clear();
    t = k.epollWait(ps.proc, t, fds);

    // More events than maxevents? Come back for another round so one
    // loop iteration stays a bounded unit of work.
    if (k.process(ps.proc).epoll->hasReady())
        wake(ps.proc);

    bool rotateMutex = false;

    // Listen fds deferred from the previous round (accept batch limit).
    if (!ps.deferredAccept.empty()) {
        fds.insert(fds.begin(), ps.deferredAccept.begin(),
                   ps.deferredAccept.end());
        ps.deferredAccept.clear();
    }

    for (int fd : fds) {
        if (std::binary_search(ps.listenFds.begin(), ps.listenFds.end(),
                               fd)) {
            Socket *lsock = k.sockFromFd(ps.proc, fd);
            bool shared = lsock && !lsock->isLocalListen &&
                          lsock->reuseportOwner < 0;
            if (acceptMutex_ && shared && idx != mutexHolder_) {
                // Another process holds the accept mutex: hand the event
                // over (flag the holder's own listen fds so it actually
                // drains the shared queues) and stay out of the accept
                // path. Per-core listen queues (local_listen / reuseport
                // clones) are exempt - only this process can drain them.
                ProcState &holder = procs_[mutexHolder_];
                for (int lfd : holder.listenFds)
                    sortedInsert(holder.deferredAccept, lfd);
                wake(static_cast<int>(mutexHolder_));
                continue;
            }
            // Batch-accept until EAGAIN or the batch limit; real event
            // loops bound the work done per event (nginx multi_accept,
            // HAProxy maxaccept).
            for (int i = 0; i < kAcceptBatch; ++i) {
                KernelStack::AcceptResult r = k.accept(ps.proc, t, fd);
                t = r.t;
                if (!r.sock) {
                    sortedErase(ps.deferredAccept, fd);
                    break;
                }
                if (adm_ && adm_->enabled()) {
                    // Health/control flows carry the packet priority
                    // mark end to end; the SYN inherited it into the
                    // TCB, so classification needs no payload peeking.
                    AdmitClass cls = r.sock->prio
                                         ? AdmitClass::kHealth
                                         : AdmitClass::kNormal;
                    AdmitDecision dec = adm_->decide(ps.proc, cls,
                                                     r.sojourn);
                    if (dec == AdmitDecision::kShed) {
                        ++shedConns_;
                        if (m_.tracer().enabled())
                            m_.tracer().connSpans().noteShed(
                                r.sock->id,
                                static_cast<std::uint8_t>(
                                    adm_->lastShedReason()));
                        t = k.close(ps.proc, t, r.fd);
                        if (i == kAcceptBatch - 1) {
                            sortedInsert(ps.deferredAccept, fd);
                            wake(ps.proc);
                        }
                        continue;
                    }
                    admState_[admKey(ps.proc, r.fd)] =
                        (dec == AdmitDecision::kDegrade);
                }
                t = onAccepted(ps, r.fd, t);
                // The request may have raced ahead of accept(); serve
                // immediately if bytes are already queued.
                if (r.sock->rxPending > 0 || r.sock->peerFin)
                    t = onConnReadable(ps, r.fd, t);
                if (i == kAcceptBatch - 1) {
                    // Come back for the rest next round.
                    sortedInsert(ps.deferredAccept, fd);
                    wake(ps.proc);
                }
            }
            rotateMutex = rotateMutex || acceptMutex_;
        } else {
            t = onConnReadable(ps, fd, t);
        }
    }
    if (rotateMutex)
        mutexHolder_ = (mutexHolder_ + 1) % procs_.size();
    return t;
}

} // namespace fsim
