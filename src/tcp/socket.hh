/**
 * @file
 * The TCP Control Block (TCB), represented — as in Linux — by a socket.
 *
 * A Socket is either a listen socket (possibly a per-core *local* listen
 * socket cloned from a global one, in Fastsocket mode) or a connection
 * socket created passively (accept path) or actively (connect path).
 * Every socket carries its own slock, the per-socket spinlock that the
 * stock kernel contends on whenever SoftIRQ context (packet processing)
 * and process context (syscalls) run on different cores.
 */

#ifndef FSIM_TCP_SOCKET_HH
#define FSIM_TCP_SOCKET_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"
#include "sync/spinlock.hh"
#include "timerwheel/timer_wheel.hh"

namespace fsim
{

struct SocketFile;

/** TCP connection states (RFC 793 subset exercised by the simulator). */
enum class TcpState
{
    kClosed,
    kListen,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kLastAck,
    kTimeWait,
};

/** Human-readable state name (used by the netstat example and tests). */
const char *tcpStateName(TcpState s);

/** Whether the socket is a listener or a connection endpoint. */
enum class SockKind
{
    kListen,
    kConnection,
};

/**
 * A socket / TCB.
 *
 * Laid out for the connection path: the fields every packet and syscall
 * of a connection touches come first, then the per-socket lock and cache
 * line, and the listen-only block (accept queue, watchers) sits at the
 * end where a connection socket never reads it.
 */
struct Socket
{
    /** Stock accept-queue capacity (somaxconn). */
    static constexpr std::size_t kDefaultBacklog = 512;

    std::uint64_t id = 0;
    SockKind kind = SockKind::kConnection;
    TcpState state = TcpState::kClosed;

    /** @name Connection sockets */
    /** @{ */
    /** Expected tuple of *incoming* packets (saddr/sport = peer). */
    FiveTuple rxTuple;
    /** Bytes received and not yet read by the application. */
    std::uint32_t rxPending = 0;
    /** Intrusive ehash bucket-chain links, insertion-ordered. Chains
     *  are intrusive rather than per-bucket vectors so inserting into a
     *  never-before-used bucket does not heap-allocate (the audit
     *  forbids per-connection allocation, and hashed bucket spread
     *  means fresh buckets keep appearing deep into steady state). */
    Socket *ehashNext = nullptr;
    Socket *ehashPrev = nullptr;
    /** Established table this socket currently lives in (null if none). */
    class EstablishedTable *ehashHome = nullptr;
    /** Core of the application process using this connection. */
    CoreId ownerCore = kInvalidCore;
    /** Process using this connection (-1 before accept()). */
    int ownerProcess = -1;
    /** VFS file, once attached to a process. */
    SocketFile *file = nullptr;
    /** Opaque application-level context. */
    void *appCtx = nullptr;
    /** Pending retransmission/keepalive timer (0 = none). */
    TimerWheel::TimerId timer = TimerWheel::kInvalidTimer;
    /** Core whose timer base holds the pending timer. */
    CoreId timerCore = kInvalidCore;
    /** Next transmit ordinal stamped into outgoing packets (wire-fault
     *  decisions hash it so retransmissions draw independent fates). */
    std::uint32_t txSeqCounter = 0;
    /** Distributed trace context inherited from the SYN (or the
     *  cookie-validated ACK), like prio; stamped back onto every packet
     *  this socket transmits so the reply path carries the same
     *  end-to-end trace id the client minted. 0 = untraced. */
    std::uint64_t traceId = 0;
    /** Listen socket this connection was spawned from (passive only);
     *  null once that listener's close() destroyed it (only accepted
     *  connections outlive their listener). */
    Socket *parentListen = nullptr;
    /** Tick at which this connection entered its listener's accept
     *  queue; accept() derives the queue sojourn from it, which is the
     *  signal the admission controller's deadline shed keys on. */
    Tick acceptEnqueueTick = 0;
    /** Core whose SoftIRQ context enqueued this connection into the
     *  accept queue; span traces place the accept-queue sojourn on it
     *  (where the connection actually waited). */
    CoreId acceptEnqueueCore = kInvalidCore;
    /** True if created by the accept path, false for connect(). */
    bool passive = true;
    /** Peer sent FIN (connection is half-closed). */
    bool peerFin = false;
    /** Peer requested "Connection: close" on a data segment (the flow's
     *  last request; a keep-alive server should actively close). */
    bool peerConnClose = false;
    /** Flow carried the packet priority mark (health/control class);
     *  inherited from the SYN so the admission controller can classify
     *  the connection before any payload arrives. */
    bool prio = false;
    /** @} */

    /** Cache line of the TCB itself. */
    CacheLine cacheLine;
    /** Slot in the owning TcbArena (kNoArenaSlot if heap-constructed). */
    static constexpr std::uint32_t kNoArenaSlot = 0xffffffffu;
    std::uint32_t arenaSlot = kNoArenaSlot;
    /** Per-socket lock (the paper's "slock" row). */
    SimSpinLock slock;

    /** @name Cross-core census (for locality property checks) */
    /** @{ */
    /** Cores that ever executed work touching this socket (bitmask). */
    std::uint64_t coresTouched = 0;

    void
    touch(CoreId c)
    {
        if (c >= 0 && c < 64)
            coresTouched |= 1ull << c;
    }

    /** Number of distinct cores that touched this socket. */
    int touchedCount() const;
    /** @} */

    /** @name Listen sockets */
    /** @{ */
    IpAddr bindAddr = 0;
    Port bindPort = 0;
    /** True for a per-core clone in a Local Listen Table. */
    bool isLocalListen = false;
    /** Owning core of a local listen socket (else kInvalidCore). */
    CoreId homeCore = kInvalidCore;
    /** For a local listen socket: the global listen socket it clones. */
    Socket *globalParent = nullptr;
    /** Connections that completed the handshake, awaiting accept().
     *  A RingQueue, not a deque: a default-constructed libstdc++ deque
     *  allocates its first block eagerly, which would charge every
     *  arena-recycled TCB one hidden 512-byte allocation. */
    RingQueue<Socket *> acceptQueue;
    /** Accept-queue capacity (somaxconn); overflow rejects connections. */
    std::size_t backlog = kDefaultBacklog;
    /** SO_REUSEPORT clone owner process (kLinux313 flavor). */
    int reuseportOwner = -1;
    /** Embryonic (SYN_RECV) children not yet established. */
    std::size_t synQueueLen = 0;
    /** Processes watching this listen socket: (process, fd) pairs. */
    std::vector<std::pair<int, int>> watchers;
    /** @} */
};

} // namespace fsim

#endif // FSIM_TCP_SOCKET_HH
