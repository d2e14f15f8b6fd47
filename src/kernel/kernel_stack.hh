/**
 * @file
 * The simulated kernel TCP/IP stack: NIC interrupt entry, NET_RX SoftIRQ
 * packet processing, TCB management (global or Fastsocket-partitioned),
 * VFS socket files, epoll, timers, and the BSD-socket-style syscall
 * surface the application models program against.
 *
 * One KernelStack instance is the kernel of one simulated Machine. All
 * syscall-like methods take the calling core and the current tick and
 * return the tick at which the call completes, charging cycle costs,
 * simulated locks and cache traffic along the way.
 */

#ifndef FSIM_KERNEL_KERNEL_STACK_HH
#define FSIM_KERNEL_KERNEL_STACK_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "conn/tcb_arena.hh"
#include "conn/time_wait.hh"
#include "cpu/core.hh"
#include "epollsim/epoll.hh"
#include "fastsocket/local_tables.hh"
#include "fastsocket/rfd.hh"
#include "kernel/kernel_config.hh"
#include "kernel/timer_base.hh"
#include "net/nic.hh"
#include "net/wire.hh"
#include "overload/overload_config.hh"
#include "overload/pressure.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "tcp/established_table.hh"
#include "tcp/listen_table.hh"
#include "tcp/port_alloc.hh"
#include "tcp/socket.hh"
#include "vfs/fd_table.hh"
#include "vfs/vfs.hh"

namespace fsim
{

/** Kernel-side state of one simulated process. */
struct KProcess
{
    int id = -1;
    CoreId core = kInvalidCore;
    bool alive = true;
    FdTable fds;
    std::unique_ptr<EventPoll> epoll;
    /** fd -> file. Dense fd-indexed with sticky capacity (nullptr =
     *  closed slot): fds are small recycled integers, and per-connection
     *  hash-map node churn is what the allocation audit forbids. */
    std::vector<SocketFile *> files;
    std::size_t filesLive = 0;   //!< non-null entries in files

    SocketFile *
    fileAt(int fd) const
    {
        return (fd >= 0 && static_cast<std::size_t>(fd) < files.size())
                   ? files[fd]
                   : nullptr;
    }

    void
    setFile(int fd, SocketFile *file)
    {
        if (static_cast<std::size_t>(fd) >= files.size())
            files.resize(std::max<std::size_t>(fd + 1, files.size() * 2),
                         nullptr);
        files[fd] = file;
        ++filesLive;
    }

    void
    clearFile(int fd)
    {
        files[fd] = nullptr;
        --filesLive;
    }
};

/** Aggregated kernel statistics. */
struct KernelStats
{
    std::uint64_t rxPackets = 0;
    std::uint64_t txPackets = 0;
    std::uint64_t steeredPackets = 0;       //!< RFD software-steered
    std::uint64_t rstSent = 0;
    std::uint64_t acceptedConns = 0;
    std::uint64_t activeConns = 0;          //!< connect() calls
    std::uint64_t slowPathAccepts = 0;      //!< via global listen socket
    std::uint64_t listenChainWalked = 0;    //!< reuseport O(n) entries
    std::uint64_t listenLookups = 0;
    /** Active-connection packets that arrived from the NIC on the core
     *  that owns the connection (Figure 5(b) numerator/denominator). */
    std::uint64_t activePktLocal = 0;
    std::uint64_t activePktTotal = 0;
    std::uint64_t timeWaitReaped = 0;
    std::uint64_t socketsCreated = 0;   //!< every newSocket() call
    std::uint64_t socketsDestroyed = 0;
    std::uint64_t acceptOverflows = 0;  //!< somaxconn rejections

    /** @name Connection-lifetime census (million-connection forensics) */
    /** @{ */
    std::uint64_t establishedCurr = 0;  //!< live ESTABLISHED gauge
    std::uint64_t establishedPeak = 0;  //!< high-water mark of the gauge
    std::uint64_t timeWaitEntered = 0;  //!< active closes that lingered
    std::uint64_t timeWaitRecycled = 0; //!< entries recycled by a SYN
    std::uint64_t timeWaitReused = 0;   //!< tuples reclaimed by connect()
    std::uint64_t timeWaitSynDropped = 0; //!< SYNs refused by a linger
    std::uint64_t timeWaitAcks = 0;     //!< FIN retransmits re-ACKed
    std::uint64_t portAllocFailures = 0; //!< connect() EADDRNOTAVAIL
    /** @} */

    /** @name SYN-flood / fault-injection visibility */
    /** @{ */
    std::uint64_t synRetransmits = 0;     //!< duplicate SYN re-answered
    std::uint64_t synDropped = 0;         //!< SYN-queue full, no cookies
    std::uint64_t synCookiesSent = 0;     //!< stateless SYN-ACKs
    std::uint64_t synCookiesValidated = 0; //!< TCBs minted from cookies
    std::uint64_t synRcvdReaped = 0;      //!< embryonic timeouts
    std::uint64_t acceptQueueRsts = 0;    //!< RSTs from accept overflow
    /** @} */

    /** @name Overload pressure signals */
    /** @{ */
    /** Packets dropped by the per-core SoftIRQ backlog budget. */
    std::uint64_t backlogDropped = 0;
    /** Non-priority SYNs refused by the pressure-gated SYN ingress
     *  (accept queue at OverloadConfig::synGate). */
    std::uint64_t synGateDropped = 0;
    /** @} */
};

/** The simulated kernel. */
class KernelStack
{
  public:
    /** External components the kernel is wired to. */
    struct Deps
    {
        EventQueue *eq;
        CpuModel *cpu;
        CacheModel *cache;
        LockRegistry *locks;
        const CycleCosts *costs;
        Nic *nic;
        Wire *wire;
        Rng *rng;
        /** Optional observability hook; null disables kernel tracing. */
        Tracer *tracer = nullptr;
        /** Optional overload knobs; null = stock behavior. */
        const OverloadConfig *overload = nullptr;
        /** Pressure sink the kernel feeds its overload signals into
         *  (accept occupancy, budget drops); may be null. */
        PressureState *pressure = nullptr;
    };

    KernelStack(const Deps &deps, const KernelConfig &cfg);
    ~KernelStack();

    KernelStack(const KernelStack &) = delete;
    KernelStack &operator=(const KernelStack &) = delete;

    /** @name Setup-phase API (not cycle-accounted) */
    /** @{ */

    /** Create a process pinned to @p core. @return process id. */
    int addProcess(CoreId core);

    /**
     * Simulate a process crash (section 3.2.1's robustness scenario):
     * the process dies at once, and a task on its core then close()s
     * every fd it holds, as exit() does. Killing a dead process is a
     * no-op.
     */
    void killProcess(int proc);

    /**
     * listen() on (addr, port) by @p proc.
     *
     * Baseline: the first caller creates the global listen socket, later
     * callers share it. Linux 3.13: every caller inserts a reuseport
     * clone. Returns the fd registered in the caller's epoll interest.
     */
    int listen(int proc, IpAddr addr, Port port);

    /**
     * Fastsocket local_listen(): clone the global listener for (addr,
     * port) into the calling process's core-local listen table.
     * Requires cfg.localListen.
     */
    void localListen(int proc, IpAddr addr, Port port);

    /** Accept-queue capacity (somaxconn) of every listen socket
     *  created afterwards: global listeners, Fastsocket local clones
     *  and SO_REUSEPORT clones alike. */
    void setListenBacklog(std::size_t backlog) { listenBacklog_ = backlog; }

    /** Callback fired when a process's epoll becomes ready. The flag
     *  says whether the wakeup came from another core (IPI + resched
     *  cost is then paid by the woken side). */
    std::function<void(int proc, bool remote)> onProcessReady;

    /** @} */

    /** @name Packet entry */
    /** @{ */

    /** Deliver a packet from the wire: NIC classify + SoftIRQ dispatch. */
    void packetArrived(const Packet &pkt);

    /** @} */

    /** @name Syscall surface (cycle-accounted) */
    /** @{ */

    struct AcceptResult
    {
        Socket *sock = nullptr;
        int fd = -1;
        Tick t = 0;
        /** Ticks the connection waited in the accept queue (admission
         *  deadline-shed signal; 0 when no socket was returned). */
        Tick sojourn = 0;
    };

    /** Non-blocking accept() on listen fd @p listen_fd. */
    AcceptResult accept(int proc, Tick t, int listen_fd);

    struct ConnectResult
    {
        Socket *sock = nullptr;
        int fd = -1;
        Tick t = 0;
    };

    /** Non-blocking connect() to @p dst : @p dport. */
    ConnectResult connect(int proc, Tick t, IpAddr dst, Port dport);

    /** epoll_wait(): drain ready fds. */
    Tick epollWait(int proc, Tick t, std::vector<int> &fds);

    /** EPOLL_CTL_ADD @p fd to the process's epoll. */
    Tick epollAdd(int proc, Tick t, int fd);

    struct ReadResult
    {
        std::uint32_t bytes = 0;
        bool finSeen = false;    //!< read() would return 0 (EOF)
        bool connClose = false;  //!< request carried "Connection: close"
        Tick t = 0;
    };

    /** read(): drain the socket receive queue. */
    ReadResult read(int proc, Tick t, int fd);

    /** write(): transmit @p bytes as one data segment. */
    Tick write(int proc, Tick t, int fd, std::uint32_t bytes);

    /** close(): release fd and file, then send FIN, free a connection
     *  that never established, or close a listener (closeListen). */
    Tick close(int proc, Tick t, int fd);

    /** @} */

    /** @name Introspection */
    /** @{ */
    Socket *sockFromFd(int proc, int fd);
    KProcess &process(int proc) { return *procs_.at(proc); }
    int numProcesses() const { return static_cast<int>(procs_.size()); }

    const KernelStats &stats() const { return stats_; }
    VfsLayer &vfs() { return *vfs_; }
    const KernelConfig &config() const { return cfg_; }
    ReceiveFlowDeliver *rfd() { return rfd_.get(); }

    /** Live sockets (leak checks / netstat example). */
    std::size_t liveSockets() const { return arena_.live(); }

    /** TCB slab arena (bytes-per-connection accounting). */
    const TcbArena &tcbArena() const { return arena_; }

    /** Lingering TIME_WAIT tuples (compact entries, not Sockets). */
    const TimeWaitTable &timeWaitTable() const { return *timeWait_; }

    /** @name Established-table cost counters, summed over all tables */
    /** @{ */
    std::uint64_t ehashLookups() const;
    std::uint64_t ehashProbesWalked() const;
    std::uint64_t ehashLookupCycles() const;
    std::uint64_t ehashResizes() const;
    /** @} */

    /** netstat-style dump rows: "proto state tuple". */
    std::vector<std::string> netstat() const;

    /** All live sockets (tests and tooling examples). */
    std::vector<const Socket *> allSockets() const;
    /** @} */

  private:
    /** Where an RFD software steer came from (core, tick); from is
     *  kInvalidCore for a packet taken straight off its NIC queue. */
    struct Steer
    {
        CoreId from = kInvalidCore;
        Tick at = 0;
    };

    /** SoftIRQ-context packet processing on @p core. */
    Tick netRx(CoreId core, const Packet &pkt, Tick t, Steer steer);

    /** True if the SoftIRQ backlog budget says to drop a packet bound
     *  for @p core (accounts the drop and feeds the pressure state). */
    bool softirqBudgetDrop(CoreId core);
    bool synGateDrop(const Socket *listener);

    /** Feed @p listener's accept-queue occupancy to the pressure sink
     *  and the tracer's depth series. */
    void noteAcceptOccupancy(const Socket *listener);

    Tick handleSyn(CoreId core, const Packet &pkt, Tick t, Steer steer);
    Tick handleEstablishedPacket(CoreId core, Socket *sock,
                                 const Packet &pkt, Tick t, Steer steer);
    /** Mint an established TCB from a validated SYN-cookie ACK. */
    Tick establishFromCookie(CoreId core, Socket *listener,
                             const Packet &pkt, Tick t, Steer steer);

    /** Pick the listener for an incoming SYN; charges lookup costs. */
    struct ListenLookup
    {
        Socket *sock = nullptr;
        bool viaLocalTable = false;
        Tick t = 0;
    };
    ListenLookup lookupListener(CoreId core, IpAddr addr, Port port,
                                Tick t);

    /** Insert/lookup/remove in the right established table. */
    EstablishedTable &ehashFor(CoreId core);
    /** @p stat summed over the established table(s) in use. */
    std::uint64_t
    sumEhash(std::uint64_t (EstablishedTable::*stat)() const) const;

    Socket *newSocket();
    /** A new passive connection TCB in @p state for @p pkt's flow,
     *  child of @p listener, minted on @p core. */
    Socket *newPassiveSocket(CoreId core, Socket *listener,
                             const Packet &pkt, TcpState state);
    /** A new listen socket bound to (addr, port). */
    Socket *newListenSocket(IpAddr addr, Port port);
    /** Free @p sock, which no fd names any more. */
    Tick destroySocket(CoreId core, Tick t, Socket *sock,
                       bool release_port = true);
    /** close()'s listen half: drop the (proc, fd) watcher; free @p
     *  lsock with its unaccepted children if it is @p proc's own clone
     *  (local or SO_REUSEPORT), not a shared global listener. */
    Tick closeListen(CoreId core, Tick t, int proc, int fd, Socket *lsock);

    /** @name TIME_WAIT lifecycle */
    /** @{ */
    /** TIME_WAIT bucket of connections owned by @p core. */
    int twBucketFor(CoreId core) const;
    /** Swap @p sock for a compact lingering entry; destroys the TCB. */
    Tick enterTimeWait(CoreId core, Tick t, Socket *sock);
    /** (Re-)arm @p bucket's reaper timer for its head expiry. */
    Tick armTwReaper(int bucket, CoreId core, Tick t);
    /** Reaper-timer body: release expired tuples (and held ports). */
    Tick reapTimeWait(int bucket, CoreId core, Tick t);
    /** Release the local ephemeral port a TIME_WAIT entry held. */
    void releaseTwPort(const TimeWaitTable::Entry &entry);
    /** @} */

    Tick sendPacket(CoreId core, Tick t, Socket *sock, std::uint8_t flags,
                    std::uint32_t payload);
    /** Answer the sender of a packet on flow @p rx with a RST, sent
     *  after the RST cost; returns completion tick. */
    Tick sendRst(const FiveTuple &rx, Tick t);

    /** Wake the epoll watcher(s) of @p sock; returns completion tick. */
    Tick wakeSocket(CoreId core, Tick t, Socket *sock, int fd_hint);

    /** Wake policy for listen sockets (new connection ready). */
    Tick wakeListen(CoreId core, Tick t, Socket *listener);

    void notifyReady(int proc, bool remote);

    Tick armConnTimer(CoreId c, Tick t, Socket *sock,
                      std::uint64_t delay_jiffies);
    Tick cancelConnTimer(CoreId c, Tick t, Socket *sock);

    /** Stateless SYN-cookie value for a flow (nonzero by construction). */
    static std::uint32_t cookieFor(const FiveTuple &flow);

    Deps d_;
    KernelConfig cfg_;
    KernelStats stats_;

    std::unique_ptr<VfsLayer> vfs_;
    ListenTable globalListen_;
    /** Built only without Local Established Tables. */
    std::unique_ptr<EstablishedTable> globalEhash_;
    std::unique_ptr<LocalListenTable> localListen_;
    std::unique_ptr<LocalEstablishedTable> localEhash_;
    std::unique_ptr<ReceiveFlowDeliver> rfd_;
    PortAllocator ports_;
    /** Global bind-hash lock serializing ephemeral port allocation in
     *  the legacy kernels; RFD's per-core port stripes bypass it. */
    SimSpinLock portBindLock_;
    /** The "slock" class every socket lock shares. */
    LockClassStats *slockClass_ = nullptr;
    std::vector<std::unique_ptr<TimerBase>> timerBases_;

    std::vector<std::unique_ptr<KProcess>> procs_;
    /** Every live Socket lives in the slab arena (no side index: the
     *  kernel always erases with the pointer in hand). */
    TcbArena arena_;
    std::unique_ptr<TimeWaitTable> timeWait_;
    /** Scratch for reapTimeWait (capacity reused across firings). */
    std::vector<TimeWaitTable::Entry> twReapScratch_;
    /** Per-bucket reaper timer on the bucket core's base (kInvalidTimer
     *  while the bucket is empty). */
    std::vector<TimerWheel::TimerId> twReaperTimers_;
    std::uint64_t nextSockId_ = 1;
    std::size_t listenBacklog_ = Socket::kDefaultBacklog;

    /** Local IPs this kernel serves (set by listen()). */
    std::vector<IpAddr> localAddrs_;
    /** Per (dst, dport, core) rotation cursor for RFD port candidates. */
    FlatMap<std::uint64_t, std::uint32_t> rfdPortCursor_;
    /** Round-robin cursor for baseline listen-socket wakeups. */
    std::size_t wakeCursor_ = 0;
};

} // namespace fsim

#endif // FSIM_KERNEL_KERNEL_STACK_HH
