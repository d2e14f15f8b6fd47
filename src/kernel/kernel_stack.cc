#include "kernel/kernel_stack.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "trace/trace_scope.hh"

namespace fsim
{

namespace
{

/** Jiffy length (HZ=1000). */
constexpr Tick kJiffy = ticksFromMsec(1.0);
/** Shortened 2*MSL for TIME_WAIT reaping, in jiffies. */
constexpr std::uint64_t kTimeWaitJiffies = 20;
/** Idle/keepalive timer horizon armed per data segment, jiffies. */
constexpr std::uint64_t kKeepaliveJiffies = 3000;
/** Buckets of each per-core local established table. */
constexpr int kLocalEhashBuckets = 2048;

/** Which accept queue a listener represents, for queue-depth traces. */
TraceQueueId
acceptQueueIdOf(const Socket *listener)
{
    if (listener->isLocalListen)
        return TraceQueueId::kAcceptLocal;
    if (listener->reuseportOwner >= 0)
        return TraceQueueId::kAcceptReuseport;
    return TraceQueueId::kAcceptShared;
}

} // namespace

KernelStack::KernelStack(const Deps &deps, const KernelConfig &cfg)
    : d_(deps), cfg_(cfg),
      ports_(cfg.ephemeralPortLo, cfg.ephemeralPortHi)
{
    fsim_assert(d_.eq && d_.cpu && d_.cache && d_.locks && d_.costs &&
                d_.nic && d_.wire && d_.rng);

    if (cfg_.localEstablished && !cfg_.rfd)
        fsim_fatal("Local Established Table requires Receive Flow Deliver: "
                   "without steering, active-connection packets can land on "
                   "a core whose local table lacks the socket (paper 2.1)");
    if (cfg_.localEstablished && !cfg_.localListen)
        fsim_fatal("Local Established Table requires the Local Listen Table "
                   "for complete connection locality (paper 3.3)");

    int ncores = d_.cpu->numCores();

    vfs_ = std::make_unique<VfsLayer>(cfg_.vfsMode(), *d_.locks, *d_.cache,
                                      *d_.costs);
    // Exactly one established-table layout exists: the per-core local
    // tables, else the global table. Both register "ehash.lock".
    if (cfg_.localEstablished)
        localEhash_ = std::make_unique<LocalEstablishedTable>(
            ncores, kLocalEhashBuckets, *d_.locks, *d_.cache, *d_.costs);
    else
        globalEhash_ = std::make_unique<EstablishedTable>(
            cfg_.ehashBuckets, *d_.locks, *d_.cache, *d_.costs,
            "ehash.lock");
    if (cfg_.localListen)
        localListen_ = std::make_unique<LocalListenTable>(ncores);
    if (cfg_.rfd) {
        rfd_ = std::make_unique<ReceiveFlowDeliver>(ncores);
        if (cfg_.rfdRandomBits)
            rfd_->randomizeBits(*d_.rng);
    }

    portBindLock_.init(d_.locks->getClass("portbind.lock"), d_.cache,
                       d_.costs->lockAcquireBase,
                       d_.costs->lockHandoffStorm);

    timerBases_.reserve(ncores);
    for (int c = 0; c < ncores; ++c) {
        timerBases_.push_back(std::make_unique<TimerBase>());
        timerBases_.back()->init(c, *d_.locks, *d_.cache, *d_.costs,
                                 *d_.cpu, kJiffy);
    }

    // TIME_WAIT entries are bucketed by closing core when the
    // established tables are partitioned (each core reaps its own), else
    // a single machine-wide bucket like the stock tw_death_row.
    int tw_buckets = cfg_.localEstablished ? ncores : 1;
    timeWait_ = std::make_unique<TimeWaitTable>(tw_buckets);
    twReaperTimers_.assign(tw_buckets, TimerWheel::kInvalidTimer);
}

KernelStack::~KernelStack() = default;

// ---------------------------------------------------------------------
// Setup-phase API
// ---------------------------------------------------------------------

int
KernelStack::addProcess(CoreId core)
{
    fsim_assert(core >= 0 && core < d_.cpu->numCores());
    auto p = std::make_unique<KProcess>();
    p->id = static_cast<int>(procs_.size());
    p->core = core;
    p->epoll = std::make_unique<EventPoll>(*d_.locks, *d_.cache, *d_.costs);
    procs_.push_back(std::move(p));
    return procs_.back()->id;
}

void
KernelStack::killProcess(int proc)
{
    KProcess &p = *procs_.at(proc);
    if (!p.alive)
        return;
    p.alive = false;
    // exit() closes every fd from the dying process's own context, so
    // each close() is charged on its core like the syscall it is.
    d_.cpu->post(p.core, TaskPrio::kProcess, [this, &p](Tick t) {
        for (int fd = 0; fd < static_cast<int>(p.files.size()); ++fd)
            if (p.files[fd] != nullptr)
                t = close(p.id, t, fd);
        return t;
    });
}

int
KernelStack::listen(int proc, IpAddr addr, Port port)
{
    KProcess &p = *procs_.at(proc);

    Socket *lsock = nullptr;
    if (cfg_.reuseport()) {
        // SO_REUSEPORT: every process inserts its own clone; NET_RX picks
        // one clone at random per SYN.
        lsock = newListenSocket(addr, port);
        lsock->reuseportOwner = proc;
        globalListen_.insert(lsock);
    } else {
        lsock = globalListen_.findExact(addr, port);
        if (!lsock) {
            lsock = newListenSocket(addr, port);
            globalListen_.insert(lsock);
        }
    }

    SocketFile *file = nullptr;
    vfs_->allocSocketFile(p.core, 0, lsock, &file);
    int fd = p.fds.alloc();
    file->fd = fd;
    file->owner = proc;
    p.setFile(fd, file);
    lsock->watchers.emplace_back(proc, fd);
    p.epoll->ctlAdd(p.core, 0, fd);

    if (std::find(localAddrs_.begin(), localAddrs_.end(), addr) ==
        localAddrs_.end())
        localAddrs_.push_back(addr);
    return fd;
}

void
KernelStack::localListen(int proc, IpAddr addr, Port port)
{
    if (!cfg_.localListen)
        fsim_fatal("local_listen() without CONFIG local listen table");
    KProcess &p = *procs_.at(proc);

    // The clone takes over the process's listen fd, whose close() is
    // then what destroys it: accept() checks the global parent's queue
    // first anyway (the starvation-avoidance order of section 3.2.1).
    Socket *global = globalListen_.findExact(addr, port);
    int lfd = 0;
    while (global && lfd < static_cast<int>(p.files.size()) &&
           (p.files[lfd] == nullptr || p.files[lfd]->priv != global))
        ++lfd;
    if (!global || lfd == static_cast<int>(p.files.size()))
        fsim_fatal("local_listen() before listen() on %u:%u", addr, port);

    Socket *clone = newListenSocket(addr, port);
    clone->isLocalListen = true;
    clone->homeCore = p.core;
    clone->globalParent = global;
    localListen_->table(p.core).insert(clone);
    p.files[lfd]->priv = clone;
    clone->watchers.emplace_back(proc, lfd);
    auto &w = global->watchers;
    w.erase(std::remove(w.begin(), w.end(), std::make_pair(proc, lfd)),
            w.end());
}

// ---------------------------------------------------------------------
// Socket lifecycle helpers
// ---------------------------------------------------------------------

Socket *
KernelStack::newSocket()
{
    Socket *s = arena_.create();
    ++stats_.socketsCreated;
    s->id = nextSockId_++;
    // Resolved at the first socket, not in the constructor: the
    // registry numbers classes (trace lock ids) in registration order,
    // and addProcess registers "ep.lock" before any socket exists.
    if (!slockClass_)
        slockClass_ = d_.locks->getClass("slock");
    s->slock.init(slockClass_, d_.cache,
                  d_.costs->lockAcquireBase, d_.costs->lockHandoffStorm);
    return s;
}

Socket *
KernelStack::newPassiveSocket(CoreId core, Socket *listener,
                              const Packet &pkt, TcpState state)
{
    Socket *conn = newSocket();
    conn->kind = SockKind::kConnection;
    conn->state = state;
    conn->rxTuple = pkt.tuple;
    conn->passive = true;
    conn->parentListen = listener;
    conn->timerCore = core;
    conn->prio = pkt.prio;
    conn->traceId = pkt.traceId;
    conn->touch(core);
    return conn;
}

Socket *
KernelStack::newListenSocket(IpAddr addr, Port port)
{
    Socket *s = newSocket();
    s->kind = SockKind::kListen;
    s->state = TcpState::kListen;
    s->bindAddr = addr;
    s->bindPort = port;
    s->backlog = listenBacklog_;
    return s;
}

Tick
KernelStack::destroySocket(CoreId core, Tick t, Socket *sock,
                           bool release_port)
{
    // One owner: an fd's socket dies only in close(), after the file
    // is gone; the protocol frees only sockets no fd names.
    fsim_assert(sock->file == nullptr);
    const Tick begin = t;
    if (sock->timer != TimerWheel::kInvalidTimer) {
        t = cancelConnTimer(core, t, sock);
    }
    if (sock->ehashHome) {
        t = sock->ehashHome->remove(core, t, sock);
        sock->ehashHome = nullptr;
    }
    if (sock->state == TcpState::kEstablished &&
        stats_.establishedCurr > 0)
        --stats_.establishedCurr;
    if (release_port && sock->kind == SockKind::kConnection &&
        !sock->passive && sock->rxTuple.dport != 0) {
        // Active connection: give the ephemeral source port back (under
        // the global bind lock on the legacy kernels). When the socket
        // enters TIME_WAIT, the lingering entry inherits the port
        // instead (release_port = false) and the reaper returns it.
        if (cfg_.flavor == KernelFlavor::kBase2632 && !cfg_.fastVfs &&
            !cfg_.localListen && !cfg_.rfd)
            t = portBindLock_.runLocked(core, t,
                                        d_.costs->portBindHold / 2);
        ports_.release(sock->rxTuple.saddr, sock->rxTuple.sport,
                       sock->rxTuple.dport);
    }
    ++stats_.socketsDestroyed;
    // Retiring the trace first records a scope still bound to this
    // connection (the entry destroying it), its stage ending at begin.
    if (d_.tracer && sock->kind == SockKind::kConnection)
        d_.tracer->connSpans().close(sock->id, begin, t);
    arena_.destroy(sock);
    return t;
}

// ---------------------------------------------------------------------
// TIME_WAIT lifecycle
// ---------------------------------------------------------------------

int
KernelStack::twBucketFor(CoreId core) const
{
    return timeWait_->bucketCount() == 1 ? 0 : static_cast<int>(core);
}

void
KernelStack::releaseTwPort(const TimeWaitTable::Entry &entry)
{
    // rx orientation: saddr/sport are the peer, dport the local
    // ephemeral port the connect() path allocated.
    ports_.release(entry.tuple.saddr, entry.tuple.sport,
                   entry.tuple.dport);
}

Tick
KernelStack::enterTimeWait(CoreId core, Tick t, Socket *sock)
{
    ++stats_.timeWaitEntered;
    bool active = sock->kind == SockKind::kConnection && !sock->passive &&
                  sock->rxTuple.dport != 0;
    // tcp_tw_reuse gives the ephemeral port back immediately; otherwise
    // the lingering entry owns it until the reaper runs, which is the
    // port-exhaustion pressure an active-connect proxy feels.
    bool holds_port = active && !cfg_.twReuse;
    int bucket = twBucketFor(core);
    std::uint64_t now = timerBases_.at(core)->jiffies();
    timeWait_->add(bucket, sock->rxTuple, now + kTimeWaitJiffies,
                   holds_port);
    // Swap the full TCB for the compact entry, like the kernel trading
    // a tcp_sock for an inet_timewait_sock: the Socket dies now and the
    // entry inherits the port when it holds one.
    t = destroySocket(core, t, sock, /*release_port=*/!holds_port);
    return armTwReaper(bucket, core, t);
}

Tick
KernelStack::armTwReaper(int bucket, CoreId core, Tick t)
{
    if (twReaperTimers_.at(bucket) != TimerWheel::kInvalidTimer)
        return t;   // armed for the current head or earlier (FIFO expiry)
    std::uint64_t head = timeWait_->headExpiry(bucket);
    if (head == 0)
        return t;
    CoreId base_core = timeWait_->bucketCount() == 1
                           ? 0
                           : static_cast<CoreId>(bucket);
    TimerBase &base = *timerBases_.at(base_core);
    std::uint64_t now = base.jiffies();
    std::uint64_t delay = head > now ? head - now : 1;
    return base.arm(core, t, delay,
                    [this, bucket](CoreId c, Tick fire_t) {
                        twReaperTimers_.at(bucket) =
                            TimerWheel::kInvalidTimer;
                        return reapTimeWait(bucket, c, fire_t);
                    },
                    &twReaperTimers_.at(bucket));
}

Tick
KernelStack::reapTimeWait(int bucket, CoreId core, Tick t)
{
    CoreId base_core = timeWait_->bucketCount() == 1
                           ? 0
                           : static_cast<CoreId>(bucket);
    std::uint64_t now = timerBases_.at(base_core)->jiffies();
    // Sticky scratch: reapers run constantly under connection churn and
    // must not re-grow a fresh vector on every firing.
    std::vector<TimeWaitTable::Entry> &reaped = twReapScratch_;
    reaped.clear();
    timeWait_->reapExpired(bucket, now, reaped);
    for (const TimeWaitTable::Entry &e : reaped) {
        if (e.holdsPort)
            releaseTwPort(e);
        ++stats_.timeWaitReaped;
    }
    t += static_cast<Tick>(reaped.size()) * d_.costs->timerOpHold;
    return armTwReaper(bucket, core, t);
}

Tick
KernelStack::armConnTimer(CoreId c, Tick t, Socket *sock,
                          std::uint64_t delay_jiffies)
{
    TimerBase &base = *timerBases_.at(sock->timerCore);
    if (sock->timer != TimerWheel::kInvalidTimer)
        return base.mod(c, t, sock->timer, delay_jiffies);
    return base.arm(c, t, delay_jiffies,
                    [this, sock](CoreId cb_core, Tick fire_t) {
                        sock->timer = TimerWheel::kInvalidTimer;
                        if (sock->passive &&
                            sock->state == TcpState::kSynRcvd) {
                            // Embryonic timeout: the final ACK never came
                            // (lost, or a flood SYN with no client behind
                            // it). Reap the half-open TCB so a SYN flood
                            // cannot pin memory forever.
                            if (sock->parentListen &&
                                sock->parentListen->synQueueLen > 0)
                                --sock->parentListen->synQueueLen;
                            ++stats_.synRcvdReaped;
                            return destroySocket(cb_core, fire_t, sock);
                        }
                        // Keepalive horizon reached: nothing to do for
                        // short-lived connections, just drop the handle.
                        return fire_t;
                    },
                    &sock->timer);
}

Tick
KernelStack::cancelConnTimer(CoreId c, Tick t, Socket *sock)
{
    if (sock->timer == TimerWheel::kInvalidTimer)
        return t;
    TimerBase &base = *timerBases_.at(sock->timerCore);
    t = base.cancel(c, t, sock->timer);
    sock->timer = TimerWheel::kInvalidTimer;
    return t;
}

Tick
KernelStack::sendPacket(CoreId core, Tick t, Socket *sock,
                        std::uint8_t flags, std::uint32_t payload)
{
    Packet pkt;
    pkt.tuple = sock->rxTuple.reversed();
    pkt.flags = flags;
    pkt.payload = payload;
    pkt.connId = sock->id;
    pkt.traceId = sock->traceId;
    pkt.txSeq = sock->txSeqCounter++;
    t += d_.costs->txPacket;
    d_.nic->noteTx(pkt, core);   // XPS: transmit on the local queue
    d_.wire->transmit(pkt, t);
    ++stats_.txPackets;
    return t;
}

Tick
KernelStack::sendRst(const FiveTuple &rx, Tick t)
{
    t += d_.costs->rstCost;
    ++stats_.rstSent;
    Packet rst;
    rst.tuple = rx.reversed();
    rst.flags = kRst;
    d_.wire->transmit(rst, t);
    return t;
}

// ---------------------------------------------------------------------
// Wakeups
// ---------------------------------------------------------------------

void
KernelStack::notifyReady(int proc, bool remote)
{
    if (onProcessReady && procs_.at(proc)->alive)
        onProcessReady(proc, remote);
}

Tick
KernelStack::wakeSocket(CoreId core, Tick t, Socket *sock, int fd_hint)
{
    int proc = sock->ownerProcess;
    if (proc < 0 || !sock->file)
        return t;   // not yet attached to a process; data waits in the TCB
    KProcess &p = *procs_.at(proc);
    int fd = fd_hint >= 0 ? fd_hint : sock->file->fd;
    t = p.epoll->wake(core, t, fd);
    if (p.epoll->hasReady())
        notifyReady(proc, core != p.core);
    return t;
}

Tick
KernelStack::wakeListen(CoreId core, Tick t, Socket *listener)
{
    const std::pair<int, int> *target = nullptr;

    if (!listener->watchers.empty()) {
        if (listener->watchers.size() == 1) {
            target = &listener->watchers.front();
        } else {
            // Shared (baseline) listen socket: the kernel's exclusive wake
            // hands the event to an effectively arbitrary waiter.
            std::size_t pick = d_.rng->range(listener->watchers.size());
            target = &listener->watchers[pick];
        }
    } else if (localListen_) {
        // Slow path: a connection landed on the *global* listen socket
        // (its local clone was missing). Nobody waits on the global socket
        // in Fastsocket mode; nudge a random live process serving this
        // port, through its first local clone in fd order, so its next
        // accept() drains the global queue first.
        std::size_t n = procs_.size();
        std::size_t start = d_.rng->range(n);
        for (std::size_t i = 0; i < n && !target; ++i) {
            const KProcess &p = *procs_[(start + i) % n];
            if (!p.alive)
                continue;
            for (const SocketFile *f : p.files) {
                const Socket *s =
                    f ? static_cast<const Socket *>(f->priv) : nullptr;
                if (s && s->isLocalListen &&
                    s->bindPort == listener->bindPort) {
                    target = &s->watchers.front();
                    break;
                }
            }
        }
    }

    if (!target)
        return t;

    KProcess &p = *procs_.at(target->first);
    t = p.epoll->wake(core, t, target->second);
    if (p.epoll->hasReady())
        notifyReady(target->first, core != p.core);
    return t;
}

// ---------------------------------------------------------------------
// RX path
// ---------------------------------------------------------------------

void
KernelStack::packetArrived(const Packet &pkt)
{
    int queue = d_.nic->classifyRx(pkt);
    CoreId core = queue;   // 1:1 IRQ affinity
    // The budget refuses *new* work only: a dropped SYN costs the
    // client one connection attempt, while a dropped request/ACK/FIN
    // wedges a connection the kernel has already invested in (the
    // client does not retransmit under give-up) — blind drops turn
    // admitted work into waste precisely when cycles are scarcest.
    if (pkt.has(kSyn) && !pkt.has(kAck) && !pkt.prio &&
        softirqBudgetDrop(core))
        return;
    Packet copy = pkt;
    d_.cpu->post(core, TaskPrio::kSoftIrq, [this, core, copy](Tick start) {
        Tick t = start + d_.costs->irqPerPacket;
        return netRx(core, copy, t, Steer{});
    });
}

bool
KernelStack::softirqBudgetDrop(CoreId core)
{
    if (!d_.overload || !d_.overload->enabled ||
        d_.overload->softirqBudget == 0)
        return false;
    std::size_t depth = d_.cpu->core(core).softirqBacklog();
    if (d_.pressure)
        d_.pressure->noteSoftirqDepth(depth);
    if (depth < d_.overload->softirqBudget)
        return false;
    // netdev_max_backlog overflow: the packet dies at the NIC ring
    // before any core cycle is charged. Bounding the SoftIRQ queue is
    // what keeps packet processing from starving process context under
    // sustained overload (receive livelock).
    ++stats_.backlogDropped;
    if (d_.pressure)
        d_.pressure->noteBacklogDrop();
    return true;
}

bool
KernelStack::synGateDrop(const Socket *listener)
{
    if (!d_.overload || !d_.overload->enabled ||
        d_.overload->synGate == 0)
        return false;
    if (listener->acceptQueue.size() < d_.overload->synGate)
        return false;
    // The accept queue this SYN would eventually land on is already at
    // the gate: refuse the connection *now*, before the handshake mints
    // a TCB, a SYN queue slot, a SYN-ACK, and accept-path work. This is
    // the receive-livelock defense — past saturation, the handshake
    // cost of doomed connections is what starves the process context,
    // and no app-level shed can recover cycles the kernel has already
    // spent. The client sees silence, exactly like a listen-overflow
    // drop.
    ++stats_.synGateDropped;
    return true;
}

void
KernelStack::noteAcceptOccupancy(const Socket *listener)
{
    if (d_.pressure)
        d_.pressure->noteAcceptQueue(listener->acceptQueue.size(),
                                     listener->backlog);
    if (d_.tracer)
        d_.tracer->noteQueueDepth(
            acceptQueueIdOf(listener), d_.eq->now(),
            static_cast<std::uint32_t>(listener->acceptQueue.size()));
}

KernelStack::ListenLookup
KernelStack::lookupListener(CoreId core, IpAddr addr, Port port, Tick t)
{
    ListenLookup out;
    ++stats_.listenLookups;

    if (cfg_.localListen) {
        t += d_.costs->listenLookupBase;
        t += d_.cache->access(core, localListen_->cacheLine(core),
                              /*write=*/false);
        ListenTable::Lookup l =
            localListen_->table(core).lookup(addr, port, *d_.rng);
        ++stats_.listenChainWalked;
        if (l.sock) {
            out.sock = l.sock;
            out.viaLocalTable = true;
            out.t = t;
            return out;
        }
        // Fall through to the global table (robustness slow path).
    }

    ListenTable::Lookup l = globalListen_.lookup(addr, port, *d_.rng);
    t += d_.costs->listenLookupBase;
    if (l.walked > 1 && l.chain) {
        // O(n) reuseport chain walk (inet_lookup_listener, section 2.1):
        // every clone in the bucket is scored, and each clone's TCB line
        // lives in its owner's cache, so the walk is a string of remote
        // misses — this is why the paper measures 24.2% of per-core
        // cycles here at 24 cores.
        t += d_.costs->listenLookupPerEntry *
             static_cast<Tick>(l.walked - 1);
        for (Socket *clone : *l.chain)
            t += d_.cache->access(core, clone->cacheLine, /*write=*/false);
    }
    stats_.listenChainWalked += static_cast<std::uint64_t>(
        l.walked > 0 ? l.walked : 1);
    out.sock = l.sock;
    out.t = t;
    return out;
}

EstablishedTable &
KernelStack::ehashFor(CoreId core)
{
    if (cfg_.localEstablished)
        return localEhash_->table(core);
    return *globalEhash_;
}

Tick
KernelStack::netRx(CoreId core, const Packet &pkt, Tick t, Steer steer)
{
    const bool steered = steer.from != kInvalidCore;
    if (!steered) {
        ++stats_.rxPackets;
        t += d_.costs->netRxBase;
    }

    // Receive Flow Deliver: classify, then steer active incoming packets
    // to the core their destination port encodes (section 3.3).
    if (cfg_.rfd && !steered) {
        // local_listen() clones a global listener on the same (addr,
        // port) that lives as long as the clone, so the global table
        // alone answers "does anyone listen here".
        PacketClass cls = rfd_->classify(
            pkt, [this](IpAddr a, Port p) {
                return globalListen_.chainLength(a, p) > 0 ||
                       globalListen_.chainLength(0, p) > 0;
            });
        CoreId target = rfd_->steerTarget(pkt, cls);
        if (target != kInvalidCore && target != core) {
            // Hand the packet to the right core's SoftIRQ backlog.
            t += d_.costs->steerCost;
            ++stats_.steeredPackets;
            if (pkt.has(kSyn) && !pkt.has(kAck) && !pkt.prio &&
                softirqBudgetDrop(target))
                return t;
            Packet copy = pkt;
            const Steer from{core, t};
            d_.cpu->post(target, TaskPrio::kSoftIrq,
                         [this, target, copy, from](Tick start) {
                             return netRx(target, copy, start, from);
                         });
            return t;
        }
    }

    if (pkt.has(kSyn) && !pkt.has(kAck))
        return handleSyn(core, pkt, t, steer);

    // Established (or handshaking) connection traffic.
    EstablishedTable::Lookup l = ehashFor(core).lookup(core, t, pkt.tuple);
    t = l.t;

    if (!l.sock) {
        // A lingering TIME_WAIT tuple absorbs stray segments for the
        // 2*MSL window: a retransmitted FIN (our last ACK was lost) is
        // re-ACKed from the compact entry, everything else is dropped
        // silently — never RST, the whole point of the linger.
        if (timeWait_->find(pkt.tuple) != nullptr) {
            if (pkt.has(kFin)) {
                ++stats_.timeWaitAcks;
                t += d_.costs->txPacket;
                Packet ack;
                ack.tuple = pkt.tuple.reversed();
                ack.flags = kAck;
                d_.nic->noteTx(ack, core);
                d_.wire->transmit(ack, t);
                ++stats_.txPackets;
            }
            return t;
        }
        // SYN-cookie ACK: no TCB exists (the SYN was answered
        // statelessly), but a pure ACK whose echoed cookie matches the
        // flow mints the established socket right here — the stateless
        // half of Linux's tcp_v4_syncookie path.
        if (cfg_.synCookies && pkt.cookie != 0 && pkt.has(kAck) &&
            !pkt.has(kSyn) && !pkt.has(kRst) && !pkt.has(kFin) &&
            pkt.cookie == cookieFor(pkt.tuple)) {
            ListenLookup ll = lookupListener(core, pkt.tuple.daddr,
                                             pkt.tuple.dport, t);
            t = ll.t;
            if (ll.sock)
                return establishFromCookie(core, ll.sock, pkt, t, steer);
        }
        // No connection: answer with a RST, unless the packet is one.
        return pkt.has(kRst) ? t : sendRst(pkt.tuple, t);
    }

    // Figure 5(b) accounting: for active connections, a packet is "local"
    // iff the NIC already delivered it to the owning core.
    if (!l.sock->passive && l.sock->kind == SockKind::kConnection) {
        ++stats_.activePktTotal;
        CoreId arrived = steered ? kInvalidCore : core;
        if (arrived == l.sock->ownerCore)
            ++stats_.activePktLocal;
    }

    return handleEstablishedPacket(core, l.sock, pkt, t, steer);
}

Tick
KernelStack::handleSyn(CoreId core, const Packet &pkt, Tick t, Steer steer)
{
    StageScope sc(d_.tracer, core, t);
    sc.steeredFrom(steer.from, steer.at);
    // Duplicate SYN (client retransmission): the connection may already
    // be in the handshake; just re-answer instead of minting a second
    // TCB for the same tuple.
    EstablishedTable::Lookup dup = ehashFor(core).lookup(core, t,
                                                         pkt.tuple);
    t = dup.t;
    if (dup.sock) {
        if (dup.sock->state == TcpState::kSynRcvd) {
            ++stats_.synRetransmits;
            return sendPacket(core, t, dup.sock, kSyn | kAck, 0);
        }
        return t;   // stale SYN into a live connection: drop
    }

    // A SYN reusing a tuple still lingering in TIME_WAIT: conservative
    // stacks drop it (the client backs off and retries past the linger);
    // tcp_tw_recycle lets the fresh handshake reclaim the entry at once.
    if (timeWait_->find(pkt.tuple)) {
        if (!cfg_.twRecycle) {
            ++stats_.timeWaitSynDropped;
            return t;
        }
        TimeWaitTable::Entry old;
        timeWait_->remove(pkt.tuple, &old);
        if (old.holdsPort)
            releaseTwPort(old);
        ++stats_.timeWaitRecycled;
    }

    ListenLookup l = lookupListener(core, pkt.tuple.daddr,
                                    pkt.tuple.dport, t);
    t = l.t;
    if (!l.sock) {
        // No listener: reject with RST.
        return sendRst(pkt.tuple, t);
    }

    Socket *listener = l.sock;
    listener->touch(core);

    if (!pkt.prio && synGateDrop(listener))
        return t;

    if (listener->synQueueLen >= cfg_.synBacklog) {
        if (!cfg_.synCookies) {
            // SYN queue full and no cookies: the kernel silently drops
            // the SYN (tcp_v4_conn_request with the request queue full).
            // Under a flood this is where legitimate clients starve.
            ++stats_.synDropped;
            return t;
        }
        // SYN cookies: answer statelessly. The SYN-ACK carries a value
        // derived purely from the flow tuple; no TCB or queue entry is
        // created until an ACK echoes the cookie back.
        t += d_.costs->synCookieCost;
        ++stats_.synCookiesSent;
        Packet synack;
        synack.tuple = pkt.tuple.reversed();
        synack.flags = kSyn | kAck;
        synack.cookie = cookieFor(pkt.tuple);
        // Inherit the SYN's transmit ordinal so a retried SYN draws an
        // independent wire-fault fate for its reply too.
        synack.txSeq = pkt.txSeq;
        t += d_.costs->txPacket;
        d_.nic->noteTx(synack, core);
        d_.wire->transmit(synack, t);
        ++stats_.txPackets;
        return t;
    }

    // Create the connection TCB and queue it on the listener's SYN queue
    // (under the listener's slock, the baseline's hot lock).
    Socket *conn = newPassiveSocket(core, listener, pkt,
                                    TcpState::kSynRcvd);
    sc.open(conn->id, ConnStage::kSynRx, /*passive=*/true, conn->traceId);
    t += d_.costs->synProcess;
    t = sc.locked(listener->slock, t, d_.costs->synQueueHold);
    ++listener->synQueueLen;

    t = ehashFor(core).insert(core, t, conn);
    conn->ehashHome = &ehashFor(core);

    // Collapsed SYN-ACK-retries + timeout: if the final ACK never shows
    // up, the embryonic TCB is reaped (see armConnTimer's callback).
    if (cfg_.synRcvdJiffies > 0)
        t = armConnTimer(core, t, conn, cfg_.synRcvdJiffies);

    return sc.close(sendPacket(core, t, conn, kSyn | kAck, 0));
}

std::uint32_t
KernelStack::cookieFor(const FiveTuple &flow)
{
    std::uint32_t h = flowHash(flow) * 0x9e3779b9u;
    h ^= h >> 16;
    return h | 1u;   // nonzero by construction: 0 means "no cookie"
}

Tick
KernelStack::establishFromCookie(CoreId core, Socket *listener,
                                 const Packet &pkt, Tick t, Steer steer)
{
    StageScope sc(d_.tracer, core, t);
    sc.steeredFrom(steer.from, steer.at);
    listener->touch(core);
    t += d_.costs->synCookieCost + d_.costs->establish;
    ++stats_.synCookiesValidated;

    Socket *conn = newPassiveSocket(core, listener, pkt,
                                    TcpState::kEstablished);
    if (++stats_.establishedCurr > stats_.establishedPeak)
        stats_.establishedPeak = stats_.establishedCurr;
    sc.open(conn->id, ConnStage::kHandshake, /*passive=*/true,
            conn->traceId);
    if (pkt.payload) {
        conn->rxPending += pkt.payload;
        if (pkt.has(kConnClose))
            conn->peerConnClose = true;
        t += d_.costs->dataSegment;
    }

    t = ehashFor(core).insert(core, t, conn);
    conn->ehashHome = &ehashFor(core);

    t = sc.locked(listener->slock, t, d_.costs->acceptQueuePushHold);
    if (listener->acceptQueue.size() >= listener->backlog) {
        ++stats_.acceptOverflows;
        ++stats_.acceptQueueRsts;
        noteAcceptOccupancy(listener);
        t = sendRst(pkt.tuple, t);
        return sc.close(destroySocket(core, t, conn));
    }
    conn->acceptEnqueueTick = t;
    conn->acceptEnqueueCore = core;
    listener->acceptQueue.push_back(conn);
    noteAcceptOccupancy(listener);
    return sc.close(wakeListen(core, t, listener));
}

Tick
KernelStack::handleEstablishedPacket(CoreId core, Socket *sock,
                                     const Packet &pkt, Tick t, Steer steer)
{
    StageScope sc(d_.tracer, core, t);
    sc.steeredFrom(steer.from, steer.at);
    sock->touch(core);
    t += d_.cache->access(core, sock->cacheLine, /*write=*/true,
                          d_.costs->tcbLines);

    TcpState prev_state = sock->state;
    bool wake_owner = false;
    bool wake_listener = false;
    bool destroy = false;
    Tick hold = d_.costs->slockHoldRx;

    switch (sock->state) {
      case TcpState::kSynRcvd:
        if (pkt.has(kAck)) {
            sock->state = TcpState::kEstablished;
            if (++stats_.establishedCurr > stats_.establishedPeak)
                stats_.establishedPeak = stats_.establishedCurr;
            if (sock->parentListen && sock->parentListen->synQueueLen > 0)
                --sock->parentListen->synQueueLen;
            if (pkt.payload) {
                sock->rxPending += pkt.payload;
                if (pkt.has(kConnClose))
                    sock->peerConnClose = true;
                hold += d_.costs->dataSegment;
            }
            wake_listener = true;
        }
        break;

      case TcpState::kSynSent:
        if (pkt.has(kSyn) && pkt.has(kAck)) {
            sock->state = TcpState::kEstablished;
            if (++stats_.establishedCurr > stats_.establishedPeak)
                stats_.establishedPeak = stats_.establishedCurr;
            wake_owner = true;
        } else if (pkt.has(kRst)) {
            // ECONNREFUSED: the fd still names the socket, so it stays
            // (CLOSED) until the owner's close() frees it.
            sock->state = TcpState::kClosed;
            wake_owner = true;
        }
        break;

      case TcpState::kEstablished:
        if (pkt.payload) {
            sock->rxPending += pkt.payload;
            if (pkt.has(kConnClose))
                sock->peerConnClose = true;
            hold += d_.costs->dataSegment;
            wake_owner = true;
        }
        if (pkt.has(kFin)) {
            sock->state = TcpState::kCloseWait;
            if (stats_.establishedCurr > 0)
                --stats_.establishedCurr;
            sock->peerFin = true;
            wake_owner = true;
        }
        break;

      case TcpState::kFinWait1:
        if (pkt.payload) {
            sock->rxPending += pkt.payload;
            hold += d_.costs->dataSegment;
        }
        if (pkt.has(kFin)) {
            sock->state = TcpState::kTimeWait;
        } else if (pkt.has(kAck)) {
            sock->state = TcpState::kFinWait2;
        }
        break;

      case TcpState::kFinWait2:
        if (pkt.has(kFin))
            sock->state = TcpState::kTimeWait;
        break;

      case TcpState::kLastAck:
        if (pkt.has(kAck))
            destroy = true;
        break;

      case TcpState::kCloseWait:
      case TcpState::kTimeWait:
      case TcpState::kClosed:
      case TcpState::kListen:
        break;
    }

    bool entered_time_wait = sock->state == TcpState::kTimeWait &&
                             prev_state != TcpState::kTimeWait;
    bool send_ack = pkt.has(kFin) && !destroy;
    sc.bind(sock->id, sock->state == TcpState::kEstablished &&
                              prev_state == TcpState::kSynRcvd
                          ? ConnStage::kHandshake
                          : ConnStage::kSoftirqRx);

    t = sc.locked(sock->slock, t, hold);

    if (pkt.payload && sock->state == TcpState::kEstablished) {
        // Refresh the connection's idle timer on every data segment; in
        // the stock kernel this hits the creating core's timer base from
        // whatever core runs NET_RX — base.lock cross-core traffic.
        t = armConnTimer(core, t, sock, kKeepaliveJiffies);
    }

    if (wake_listener && sock->parentListen) {
        Socket *listener = sock->parentListen;
        t = sc.locked(listener->slock, t, d_.costs->acceptQueuePushHold);
        if (listener->acceptQueue.size() >= listener->backlog) {
            // Accept-queue overflow (somaxconn): reject the connection.
            ++stats_.acceptOverflows;
            ++stats_.acceptQueueRsts;
            noteAcceptOccupancy(listener);
            t = sendRst(sock->rxTuple, t);
            return sc.close(destroySocket(core, t, sock));
        }
        sock->acceptEnqueueTick = t;
        sock->acceptEnqueueCore = core;
        listener->acceptQueue.push_back(sock);
        noteAcceptOccupancy(listener);
        t = wakeListen(core, t, listener);
    }

    if (wake_owner)
        t = wakeSocket(core, t, sock, -1);

    if (send_ack)
        t = sendPacket(core, t, sock, kAck, 0);

    if (entered_time_wait) {
        // Cancel the idle timer, then swap the TCB for a compact
        // lingering entry on this core's TIME_WAIT bucket (the bucket's
        // shared reaper replaces a per-socket 2*MSL timer).
        t = cancelConnTimer(core, t, sock);
        return sc.close(enterTimeWait(core, t, sock));
    }

    if (destroy)
        t = destroySocket(core, t, sock);
    return sc.close(t);
}

// ---------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------

Socket *
KernelStack::sockFromFd(int proc, int fd)
{
    KProcess &p = *procs_.at(proc);
    SocketFile *file = p.fileAt(fd);
    if (file == nullptr)
        return nullptr;
    return static_cast<Socket *>(file->priv);
}

KernelStack::AcceptResult
KernelStack::accept(int proc, Tick t, int listen_fd)
{
    AcceptResult out;
    KProcess &p = *procs_.at(proc);
    CoreId core = p.core;
    Socket *lsock = sockFromFd(proc, listen_fd);
    fsim_assert(lsock && lsock->kind == SockKind::kListen);

    StageScope sc(d_.tracer, core, t, Phase::kSyscall);
    t += d_.costs->syscallOverhead + d_.costs->acceptCost;
    // accept() writes the listener TCB (queue heads, counters), keeping
    // its cache line homed on the accepting core.
    t += d_.cache->access(core, lsock->cacheLine, /*write=*/true);

    Socket *conn = nullptr;
    Socket *global = lsock->isLocalListen ? lsock->globalParent : lsock;

    // Section 3.2.1: the *global* accept queue is checked first (a single
    // lock-free read when empty) so slow-path connections cannot starve
    // behind the always-busy local queue.
    if (lsock->isLocalListen && !global->acceptQueue.empty()) {
        t = sc.locked(global->slock, t, d_.costs->acceptQueuePushHold);
        if (!global->acceptQueue.empty()) {
            conn = global->acceptQueue.front();
            global->acceptQueue.pop_front();
            noteAcceptOccupancy(global);
            ++stats_.slowPathAccepts;
        }
    }

    if (!conn) {
        t = sc.locked(lsock->slock, t, d_.costs->acceptQueuePushHold);
        if (!lsock->acceptQueue.empty()) {
            conn = lsock->acceptQueue.front();
            lsock->acceptQueue.pop_front();
            noteAcceptOccupancy(lsock);
        }
    }

    if (!conn) {
        out.t = sc.close(t);
        return out;   // EAGAIN
    }

    sc.bind(conn->id, ConnStage::kAccept);
    conn->touch(core);
    out.sojourn = t > conn->acceptEnqueueTick
                      ? t - conn->acceptEnqueueTick
                      : 0;
    t += d_.cache->access(core, conn->cacheLine, /*write=*/true,
                          d_.costs->tcbLines);

    SocketFile *file = nullptr;
    t = sc.vfs(t, vfs_->allocSocketFile(core, t, conn, &file), vfs_->mode());
    sc.waited(ConnStage::kAcceptQueue,
              conn->acceptEnqueueCore != kInvalidCore
                  ? conn->acceptEnqueueCore
                  : core,
              conn->acceptEnqueueTick,
              conn->acceptEnqueueTick + out.sojourn);
    int fd = p.fds.alloc();
    t += d_.costs->fdBitmapCost;
    file->fd = fd;
    file->owner = proc;
    p.setFile(fd, file);
    conn->file = file;
    conn->ownerProcess = proc;
    conn->ownerCore = core;
    ++stats_.acceptedConns;

    out.sock = conn;
    out.fd = fd;
    out.t = sc.close(t);
    return out;
}

KernelStack::ConnectResult
KernelStack::connect(int proc, Tick t, IpAddr dst, Port dport)
{
    ConnectResult out;
    KProcess &p = *procs_.at(proc);
    CoreId core = p.core;

    if (localAddrs_.empty())
        fsim_fatal("connect() with no local address configured");
    IpAddr src = localAddrs_.front();

    StageScope sc(d_.tracer, core, t, Phase::kSyscall);
    t += d_.costs->syscallOverhead + d_.costs->connectCost +
         d_.costs->portAllocCost;

    Port psrc = 0;
    if (cfg_.rfd) {
        // RFD source-port selection: hash(psrc) must equal this core.
        std::uint32_t count = rfd_->candidateCount();
        std::uint64_t ck = (static_cast<std::uint64_t>(dst) << 20) ^
                           (static_cast<std::uint64_t>(dport) << 6) ^
                           static_cast<std::uint64_t>(core);
        std::uint32_t &cursor = *rfdPortCursor_.insert(ck, 0).first;
        for (std::uint32_t i = 0; i < count; ++i) {
            Port cand = rfd_->portCandidate(core,
                                            (cursor + i) % count);
            if (cand <= kWellKnownPortMax)
                continue;
            if (ports_.claim(dst, dport, cand)) {
                psrc = cand;
                cursor = (cursor + i + 1) % count;
                break;
            }
        }
    } else {
        // The stock 2.6.32 path serializes the ephemeral port search on
        // the bind-hash lock — a hot spot for proxies opening active
        // connections from every core. 3.13 made it fine-grained, and
        // the Fastsocket build (any feature bit) patches it per-core.
        bool stock = cfg_.flavor == KernelFlavor::kBase2632 &&
                     !cfg_.fastVfs && !cfg_.localListen;
        if (stock)
            t = sc.locked(portBindLock_, t, d_.costs->portBindHold);
        else
            t += d_.costs->portBindHold / 4;
        psrc = ports_.alloc(dst, dport);
    }
    if (psrc == 0) {
        ++stats_.portAllocFailures;
        out.t = sc.close(t);
        return out;   // EADDRNOTAVAIL
    }

    // tcp_twsk_unique: with tcp_tw_reuse the port came back at close
    // time, so this connect may pick a four-tuple whose old incarnation
    // still lingers in TIME_WAIT. Kill the lingering entry and take
    // over the tuple (safe here: the simulated peer is past 2*MSL
    // concerns, and Linux permits it given timestamps).
    if (cfg_.twReuse) {
        TimeWaitTable::Entry old;
        if (timeWait_->remove(FiveTuple{dst, src, dport, psrc}, &old)) {
            // The entry cannot hold the port: a held port would never
            // have been handed out by the allocator above.
            fsim_assert(!old.holdsPort);
            ++stats_.timeWaitReused;
        }
    }

    Socket *sock = newSocket();
    sock->kind = SockKind::kConnection;
    sock->state = TcpState::kSynSent;
    sock->passive = false;
    sock->rxTuple = FiveTuple{dst, src, dport, psrc};
    sock->ownerProcess = proc;
    sock->ownerCore = core;
    sock->timerCore = core;
    sock->touch(core);
    sc.open(sock->id, ConnStage::kConnect, /*passive=*/false);

    SocketFile *file = nullptr;
    t = sc.vfs(t, vfs_->allocSocketFile(core, t, sock, &file), vfs_->mode());
    int fd = p.fds.alloc();
    t += d_.costs->fdBitmapCost;
    file->fd = fd;
    file->owner = proc;
    p.setFile(fd, file);
    sock->file = file;

    t = ehashFor(core).insert(core, t, sock);
    sock->ehashHome = &ehashFor(core);

    t = sendPacket(core, t, sock, kSyn, 0);
    ++stats_.activeConns;

    out.sock = sock;
    out.fd = fd;
    out.t = sc.close(t);
    return out;
}

Tick
KernelStack::epollWait(int proc, Tick t, std::vector<int> &fds)
{
    KProcess &p = *procs_.at(proc);
    StageScope sc(d_.tracer, p.core, t, Phase::kSyscall);
    return sc.close(p.epoll->wait(p.core, t, fds));
}

Tick
KernelStack::epollAdd(int proc, Tick t, int fd)
{
    KProcess &p = *procs_.at(proc);
    StageScope sc(d_.tracer, p.core, t, Phase::kSyscall);
    return sc.close(p.epoll->ctlAdd(p.core, t, fd));
}

KernelStack::ReadResult
KernelStack::read(int proc, Tick t, int fd)
{
    ReadResult out;
    KProcess &p = *procs_.at(proc);
    CoreId core = p.core;
    Socket *sock = sockFromFd(proc, fd);
    fsim_assert(sock != nullptr);

    StageScope sc(d_.tracer, core, t, Phase::kSyscall);
    sc.bind(sock->id, ConnStage::kAppRead);
    if (sc.tracing()) {
        // Dispatch delay: the epoll wakeup to this read().
        const Tick wake_at = p.epoll->consumeWakeTick(fd);
        if (wake_at > 0 && wake_at < t)
            sc.waited(ConnStage::kDispatch, core, wake_at, t);
    }
    t += d_.costs->syscallOverhead + d_.costs->readCost;
    t += d_.cache->access(core, sock->cacheLine, /*write=*/true,
                          d_.costs->tcbLines);
    sock->touch(core);

    t = sc.locked(sock->slock, t, d_.costs->slockHoldApp);
    out.bytes = sock->rxPending;
    sock->rxPending = 0;
    out.finSeen = sock->peerFin;
    out.connClose = sock->peerConnClose;
    out.t = sc.close(t);
    return out;
}

Tick
KernelStack::write(int proc, Tick t, int fd, std::uint32_t bytes)
{
    KProcess &p = *procs_.at(proc);
    CoreId core = p.core;
    Socket *sock = sockFromFd(proc, fd);
    fsim_assert(sock != nullptr);

    StageScope sc(d_.tracer, core, t, Phase::kSyscall);
    sc.bind(sock->id, ConnStage::kAppWrite);
    t += d_.costs->syscallOverhead + d_.costs->writeCost;
    t += d_.cache->access(core, sock->cacheLine, /*write=*/true,
                          d_.costs->tcbLines);
    sock->touch(core);

    t = sc.locked(sock->slock, t, d_.costs->slockHoldApp);

    // Arm/refresh the retransmission timer from process context; without
    // locality this crosses cores into the SoftIRQ core's base.
    t = armConnTimer(core, t, sock, kKeepaliveJiffies);

    return sc.close(sendPacket(core, t, sock, kAck | kPsh, bytes));
}

Tick
KernelStack::close(int proc, Tick t, int fd)
{
    KProcess &p = *procs_.at(proc);
    CoreId core = p.core;
    SocketFile *file = p.fileAt(fd);
    fsim_assert(file != nullptr);
    Socket *sock = static_cast<Socket *>(file->priv);
    const bool listener = sock->kind == SockKind::kListen;

    StageScope sc(d_.tracer, core, t, Phase::kSyscall);
    if (!listener)
        sc.bind(sock->id, ConnStage::kTeardown);
    t += d_.costs->syscallOverhead + d_.costs->closeCost;
    sock->touch(core);

    // fd release + epoll interest teardown (ep.lock) + VFS teardown.
    t = p.epoll->ctlDel(core, t, fd);
    p.fds.free(fd);
    t += d_.costs->fdBitmapCost;
    p.clearFile(fd);
    t = sc.vfs(t, vfs_->freeSocketFile(core, t, file), vfs_->mode());
    sock->file = nullptr;

    t = sc.locked(sock->slock, t, d_.costs->slockHoldApp);
    if (listener)
        return sc.close(closeListen(core, t, proc, fd, sock));

    switch (sock->state) {
      case TcpState::kEstablished:
        // Active close: FIN, wait for the peer's ACK/FIN.
        sock->state = TcpState::kFinWait1;
        --stats_.establishedCurr;
        t = sendPacket(core, t, sock, kFin | kAck, 0);
        break;
      case TcpState::kCloseWait:
        // Passive close: our FIN answers the peer's.
        sock->state = TcpState::kLastAck;
        t = sendPacket(core, t, sock, kFin | kAck, 0);
        break;
      case TcpState::kSynSent:
      case TcpState::kSynRcvd:
      case TcpState::kClosed:
        return sc.close(destroySocket(core, t, sock));
      default:
        break;
    }
    return sc.close(t);
}

Tick
KernelStack::closeListen(CoreId core, Tick t, int proc, int fd,
                         Socket *lsock)
{
    auto &w = lsock->watchers;
    w.erase(std::remove(w.begin(), w.end(), std::make_pair(proc, fd)),
            w.end());
    // A shared global listener outlives any one process.
    if (!lsock->isLocalListen && lsock->reuseportOwner != proc)
        return t;
    if (lsock->isLocalListen)
        localListen_->table(lsock->homeCore).remove(lsock);
    else
        globalListen_.remove(lsock);

    // SYN_RECV children die with the SYN queue and queued ones with the
    // accept queue; accepted ones never read their parent again.
    std::vector<Socket *> embryos;
    arena_.forEach([&](Socket *s) {
        if (s->parentListen != lsock)
            return;
        if (s->state == TcpState::kSynRcvd)
            embryos.push_back(s);
        else
            s->parentListen = nullptr;
    });
    for (Socket *s : embryos)
        t = destroySocket(core, t, s);
    for (Socket *queued : lsock->acceptQueue)
        t = destroySocket(core, t, queued);
    return destroySocket(core, t, lsock);
}

std::vector<const Socket *>
KernelStack::allSockets() const
{
    std::vector<const Socket *> out;
    out.reserve(arena_.live());
    arena_.forEach([&out](Socket *s) { out.push_back(s); });
    return out;
}

std::uint64_t
KernelStack::sumEhash(std::uint64_t (EstablishedTable::*stat)() const) const
{
    if (globalEhash_)
        return ((*globalEhash_).*stat)();
    std::uint64_t n = 0;
    for (int c = 0; c < localEhash_->numCores(); ++c)
        n += (localEhash_->table(c).*stat)();
    return n;
}

std::uint64_t
KernelStack::ehashLookups() const
{
    return sumEhash(&EstablishedTable::lookups);
}

std::uint64_t
KernelStack::ehashProbesWalked() const
{
    return sumEhash(&EstablishedTable::probesWalked);
}

std::uint64_t
KernelStack::ehashLookupCycles() const
{
    return sumEhash(&EstablishedTable::lookupCycles);
}

std::uint64_t
KernelStack::ehashResizes() const
{
    return sumEhash(&EstablishedTable::resizes);
}

std::vector<std::string>
KernelStack::netstat() const
{
    std::vector<std::string> rows;
    auto emit = [&rows](const Socket *s) {
        char buf[128];
        if (s->kind == SockKind::kListen) {
            std::snprintf(buf, sizeof(buf), "tcp  %-12s %u:%u",
                          tcpStateName(s->state),
                          s->bindAddr, s->bindPort);
        } else {
            std::snprintf(buf, sizeof(buf), "tcp  %-12s %s",
                          tcpStateName(s->state), s->rxTuple.str().c_str());
        }
        rows.push_back(buf);
    };
    arena_.forEach([&emit](Socket *s) { emit(s); });
    return rows;
}

} // namespace fsim
