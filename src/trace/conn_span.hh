/**
 * @file
 * Per-connection lifecycle span log: the simulator's answer to "where did
 * THIS connection lose its time?".
 *
 * Every connection TCB minted by the kernel opens a ConnSpanTrace; the
 * StageScope (trace_scope.hh) each kernel entry and app service slice
 * opens hands the log one batch per entry: the stage's waits and VFS
 * sub-span, its stage span with the executing core, then its lock-spin
 * sub-spans, appended under a single trace lookup. Aggregate
 * phase accounting (PhaseAccounting) answers "where did the machine's
 * cycles go"; this log answers the per-request question the paper's
 * tail analysis needs.
 *
 * Stages come in three kinds:
 *  - exec:  cycles a core actually spent on this connection. Per core,
 *    exec spans never overlap (cores execute serially in virtual time),
 *    so their per-core sum must reconcile with CpuModel busy ticks
 *    (sum <= busy; the cross-check test pins it).
 *  - wait:  elapsed time with no core charged (accept-queue sojourn,
 *    epoll-wake-to-read dispatch delay, SoftIRQ backlog residency after a
 *    software steer). Waits explain tails; they are excluded from the
 *    exec reconciliation.
 *  - sub:   a sub-interval of an enclosing exec span (lock spin, VFS
 *    allocation) broken out for attribution. Also excluded from the
 *    reconciliation sum, since the parent already covers the cycles.
 *
 * Storage: live traces sit in recycled slots indexed by a FlatMap, and
 * each slot's span buffer keeps its capacity, so connection churn stops
 * touching the allocator once the live population has peaked. A closing
 * trace either goes straight to an attached FleetTraceLog (fleet
 * machines: stitched at close, nothing retained) or, with none attached
 * (single-machine testbeds), is retained: its header in chunked storage,
 * its spans copied into a chunked arena that ConnSpanTrace::spans views.
 * Forensics and the Perfetto exporter read a window of the retained
 * traces in place.
 *
 * Determinism: completed traces are kept in completion order (a pure
 * function of simulated events), never in pointer or hash order, so any
 * report derived from the log is bit-stable for a given seed + config.
 * Recording never charges virtual cycles and never touches simulated
 * state, so results are identical with tracing on or off.
 */

#ifndef FSIM_TRACE_CONN_SPAN_HH
#define FSIM_TRACE_CONN_SPAN_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/chunked_vector.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace fsim
{

class FleetTraceLog;
class StageScope;

/** Connection lifecycle stage a span is attributed to. */
enum class ConnStage : std::uint8_t
{
    kSynRx = 0,      //!< SoftIRQ: SYN processing (TCB mint + SYN-ACK)
    kHandshake,      //!< SoftIRQ: final ACK / cookie ACK establishes
    kSoftirqRx,      //!< SoftIRQ: any other packet on this connection
    kAcceptQueue,    //!< wait: enqueue-to-dequeue accept-queue sojourn
    kAccept,         //!< accept() syscall servicing this connection
    kConnect,        //!< connect() syscall creating an active connection
    kDispatch,       //!< wait: epoll wakeup to the app's read() syscall
    kAppRead,        //!< read() syscall
    kAppProcess,     //!< application service work between read and write
    kAppWrite,       //!< write() syscall
    kTeardown,       //!< close() syscall + FIN-path work
    kVfs,            //!< sub: VFS socket-file alloc/free inside a syscall
    kLockWait,       //!< sub: lock spin inside an enclosing stage
    kCoreTransfer,   //!< wait: cross-core handoff (RFD software steer)
};

/** Total number of connection stages. */
constexpr int kNumConnStages =
    static_cast<int>(ConnStage::kCoreTransfer) + 1;

/** How a stage's time relates to core busy cycles (see file header). */
enum class ConnStageKind : std::uint8_t
{
    kExec = 0,
    kWait,
    kSub,
};

/** Stable lowercase stage name ("syn-rx", "accept-queue", ...). */
const char *connStageName(ConnStage s);

ConnStageKind connStageKind(ConnStage s);

/** One timestamped stage interval of one connection. */
struct ConnSpan
{
    Tick begin = 0;
    Tick end = 0;
    /** Stage-specific payload: peer core for kCoreTransfer, lock-class
     *  trace id for kLockWait, VFS mode for kVfs, 0 otherwise. */
    std::uint32_t aux = 0;
    /** Core that executed (exec/sub) or hosts the waiting queue (wait). */
    std::int16_t core = -1;
    ConnStage stage = ConnStage::kSynRx;
};

/** The full recorded lifecycle of one connection. */
struct ConnSpanTrace
{
    /** "Not shed by admission control" sentinel for shedReason. */
    static constexpr std::uint8_t kNotShed = 0xff;

    std::uint64_t connId = 0;
    /** End-to-end distributed trace context (Packet::traceId) this
     *  connection belongs to; 0 when the client did not mint one
     *  (probes, backend-side connections). The fleet stitcher joins
     *  machine-side traces to LB/client records on this key. */
    std::uint64_t traceId = 0;
    Tick openTick = 0;     //!< first kernel touch (SYN rx / connect)
    Tick closeTick = 0;    //!< TCB destruction
    bool passive = true;
    bool closed = false;
    /** ShedReason value when admission control shed this connection. */
    std::uint8_t shedReason = kNotShed;
    /** Recorded spans in order: a read-only view of storage owned by the
     *  ConnSpanLog (or by whoever built the trace), never by the trace. */
    std::span<const ConnSpan> spans;

    /** ConnSpanFold::latency of this trace. */
    Tick serviceLatency() const;
};

/**
 * A trace folded into fixed-size per-connection totals in one pass over
 * its spans, allocating nothing. It is the one span walk behind
 * per-trace totals: forensics' stage distributions and exemplar
 * breakdowns, the fleet stitcher, and serviceLatency all read it.
 */
struct ConnSpanFold
{
    /** Core ids a fold can name; a higher one fails an assertion. */
    static constexpr int kMaxCores = 256;

    explicit ConnSpanFold(const ConnSpanTrace &tr);
    bool operator==(const ConnSpanFold &) const = default;

    /** Per-stage total ticks and span counts, indexed by ConnStage. */
    std::array<Tick, kNumConnStages> stageTicks{};
    std::array<std::uint32_t, kNumConnStages> stageCounts{};
    /**
     * Service latency: open until the last response byte was written
     * (end of the last kAppWrite span), falling back to the last exec
     * span for connections that never produced a response, and 0 with
     * neither. This is the server-side analogue of the client-observed
     * latency, minus wire delay, and the ranking key for tail
     * exemplars.
     */
    Tick latency = 0;
    /** Sum of the exec spans. */
    Tick exec = 0;
    /** Service latency no exec or wait span covers (queue gaps, wire);
     *  sub spans lie inside exec spans and cover nothing more. */
    Tick unattributed = 0;
    /** Cores that ran an exec or sub span of the connection. */
    std::bitset<kMaxCores> cores;
};

/**
 * Per-machine log of connection span traces (owned by the Tracer).
 *
 * All mutators are no-ops when disabled, and the allocation counter
 * stays zero — the bench-mode "--notrace costs nothing" assert keys on
 * that.
 */
class ConnSpanLog
{
  public:
    /** Spans retained per connection before dropping (and counting). */
    static constexpr std::size_t kMaxSpansPerConn = 96;
    /** Completed traces retained before dropping whole traces (only
     *  when no fleet log is attached; stitching is never capped). */
    static constexpr std::size_t kMaxRetainedTraces = 1u << 18;

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Hand every finalized trace to @p fleet's stitcher at close
     *  instead of retaining it; nullptr (the default) retains. */
    void stitchInto(FleetTraceLog *fleet) { fleet_ = fleet; }

    /** Begin a trace for @p conn_id (kernel TCB creation) in the
     *  distributed trace context @p trace_id (0: none). */
    void open(std::uint64_t conn_id, Tick t, bool passive,
              std::uint64_t trace_id = 0);

    /**
     * Append @p batch, in order, to @p conn_id's trace. Each span's end
     * is clamped to its begin; exec spans are charged to their core
     * even past the kMaxSpansPerConn cap, where spans are dropped and
     * counted. Unknown ids are ignored (the trace may already be
     * finalized, e.g. stray packets after destruction).
     */
    void append(std::uint64_t conn_id, std::span<const ConnSpan> batch);

    /** Record an admission-control shed verdict on the trace. */
    void noteShed(std::uint64_t conn_id, std::uint8_t reason);

    /** Finalize the trace (TCB destruction from @p begin to @p t) in
     *  completion order. A StageScope still bound to the connection
     *  records first, its stage ending at @p begin. */
    void close(std::uint64_t conn_id, Tick begin, Tick t);

    /** Finalize every still-live trace at @p t (machine death: the
     *  TCBs never destruct, so their spans would otherwise leak).
     *  Traces keep closed=false to mark the abnormal finalization;
     *  processed in ascending conn-id order for determinism. */
    void closeAllLive(Tick t);

    /** Hand every still-open trace (connections in flight at
     *  collection time) to the attached fleet log's stitcher, leaving
     *  it open. A span does not need an orderly close to join an
     *  end-to-end trace — e.g. a server stuck retransmitting its FIN
     *  through a NAT flow that died in a balancer failover still
     *  served the request. The stitcher's total order makes the
     *  visiting order irrelevant. */
    void stitchLive();

    /** Retained completed traces, oldest first (completion order). */
    const ChunkedVector<ConnSpanTrace> &completed() const
    {
        return completed_;
    }

    std::size_t completedCount() const { return completed_.size(); }
    std::size_t liveCount() const { return live_.size(); }

    /** @name Accounting
     *  opened == live + retained + dropped + handed off. */
    /** @{ */
    std::uint64_t opened() const { return opened_; }
    std::uint64_t closedTotal() const { return closedTotal_; }
    std::uint64_t spansRecorded() const { return spansRecorded_; }
    std::uint64_t spansDropped() const { return spansDropped_; }
    std::uint64_t tracesDropped() const { return tracesDropped_; }
    /** Finalized traces handed to the attached fleet log. */
    std::uint64_t tracesHandedOff() const { return tracesHandedOff_; }
    /** Heap growth of the log's own buffers (trace slots, span-buffer
     *  growth, retention chunks); must be exactly zero when the log is
     *  disabled. */
    std::uint64_t allocations() const { return allocations_; }
    /** @} */

    /**
     * Total exec-span cycles recorded against @p core, across live,
     * completed and retention-dropped traces. Reconciles against
     * CpuModel::busyTicks(core): recorded exec time can never exceed
     * what the core actually ran.
     */
    std::uint64_t execSelfTicks(CoreId core) const;

  private:
    friend class StageScope;

    /** A live trace: header plus an owned span buffer whose capacity
     *  survives slot reuse. */
    struct LiveTrace
    {
        ConnSpanTrace head;
        std::vector<ConnSpan> spans;

        ConnSpanTrace view() const;
    };

    /** Spans per retention-arena chunk (a trace never straddles two). */
    static constexpr std::size_t kArenaChunk = 1u << 14;

    LiveTrace *findLive(std::uint64_t conn_id);
    void finalize(std::uint32_t slot, Tick t, bool orderly);
    std::span<const ConnSpan> retainSpans(std::span<const ConnSpan> src);

    bool enabled_ = true;
    FleetTraceLog *fleet_ = nullptr;
    StageScope *scopes_ = nullptr;   //!< bound scopes, linked by next_
    FlatMap<std::uint64_t, std::uint32_t> live_;
    std::vector<LiveTrace> slots_;
    std::vector<std::uint32_t> freeSlots_;
    ChunkedVector<ConnSpanTrace> completed_;
    std::vector<std::unique_ptr<ConnSpan[]>> arena_;
    std::size_t arenaUsed_ = kArenaChunk;   //!< in arena_.back()
    std::vector<std::uint64_t> execTicksPerCore_;

    std::uint64_t opened_ = 0;
    std::uint64_t closedTotal_ = 0;
    std::uint64_t spansRecorded_ = 0;
    std::uint64_t spansDropped_ = 0;
    std::uint64_t tracesDropped_ = 0;
    std::uint64_t tracesHandedOff_ = 0;
    std::uint64_t allocations_ = 0;
};

} // namespace fsim

#endif // FSIM_TRACE_CONN_SPAN_HH
