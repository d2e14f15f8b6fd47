/**
 * @file
 * Fleet-wide distributed request tracing: the end-to-end complement of
 * ConnSpanLog. A request in the fleet tier crosses client -> L4
 * balancer (full NAT) -> server machine -> backend; each hop only sees
 * its own slice. The 64-bit trace context the client mints
 * (Packet::traceId) survives the NAT rewrite and is inherited by the
 * server TCB, so the hop records collected here stitch into one
 * end-to-end trace per request — the "where did THIS p999 request
 * spend its time, fleet-wide?" answer LiveStack-style cluster
 * simulation needs.
 *
 * The log is recording-only: it schedules no events, charges no
 * virtual cycles, and never touches simulated state, so results (and
 * run fingerprints) are identical with tracing on or off. All mutators
 * are no-ops when disabled and the allocation counter stays zero — the
 * same "--notrace costs nothing" discipline ConnSpanLog follows.
 */

#ifndef FSIM_TRACE_FLEET_TRACE_HH
#define FSIM_TRACE_FLEET_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/chunked_vector.hh"
#include "sim/types.hh"
#include "trace/conn_span.hh"

namespace fsim
{

/**
 * One end-to-end request trace, stitched across fleet hops, packed into
 * 48 bytes. traceId and clientStart are stored whole. The other four
 * instants are stored as their distance from clientStart, the service
 * latency in 40 bits, and the counts and ids in the widths the fleet
 * allows. Within the limits below the record is lossless: every field
 * reads back the value written, and a write outside them fails an
 * assertion instead of truncating. Tick 0 reads back exactly for every
 * instant: a span still open at collect reports it as its close.
 *
 * A record the balancer creates before the client's start (not expected
 * with in-order recording) measures its instants from its first one
 * until clientStart arrives, and moves them to the new base then.
 */
class FleetTrace
{
  public:
    /** @name Limits of the packed layout */
    /** @{ */
    /** clientStart: 48 bits, ~31 sim-hours at 2.5 GHz. */
    static constexpr Tick kMaxClientStart = (Tick{1} << 48) - 1;
    /** How far clientEnd, lbIngress, serverOpen and serverClose may lie
     *  from clientStart, before or after it: ~220 sim-s. */
    static constexpr Tick kMaxDistance = (Tick{1} << 39) - 1;
    static constexpr Tick kMaxServerService = (Tick{1} << 40) - 1;
    static constexpr Tick kMaxServerExec = 0xffff'ffff;
    static constexpr std::uint32_t kMaxLbFlows = 0xff;
    static constexpr std::uint32_t kMaxLbForwards = 0xffff;
    /** FleetTestbed runs at most 8 balancers and 64 machines. */
    static constexpr int kMaxLbId = 7;
    static constexpr int kMaxServerSlot = 0xff;
    /** @} */

    FleetTrace() = default;
    /** The record of @p trace_id, first seen at tick @p t. */
    FleetTrace(std::uint64_t trace_id, Tick t);

    std::uint64_t traceId() const { return traceId_; }

    /** @name Client hop (HttpLoad) */
    /** @{ */
    /** Launch (SYN minted); 0 until set. */
    Tick clientStart() const { return has(kStarted) ? Tick{base_} : 0; }
    /** Closed-loop finish (ok or failed); 0 until clientDone(). */
    Tick clientEnd() const { return instant(kClientEnd); }
    bool clientDone() const { return has(kClientDone); }
    bool ok() const { return has(kOk); }
    /** @} */

    /** @name Balancer hop (L4 full NAT) */
    /** @{ */
    /** First balancer that created a flow; -1 before any. */
    int lbId() const { return lbFlows_ ? lbId_ : -1; }
    /** First SYN arrival at a VIP. */
    Tick lbIngress() const { return instant(kLbIngress); }
    /** Flow entries created (failover -> more than 1). */
    std::uint32_t lbFlows() const { return lbFlows_; }
    /** Packets NAT-rewritten, both ways. */
    std::uint32_t lbForwards() const { return lbForwards_; }
    /** Machine slot the first flow steered to; -1 before any. */
    int serverSlot() const { return lbFlows_ ? serverSlot_ : -1; }
    /** @} */

    /** @name Server-machine hop (stitched from ConnSpanLog) */
    /** @{ */
    bool stitched() const { return has(kStitched); }
    /** The span closed via TCB destruction. */
    bool serverOrderly() const { return has(kServerOrderly); }
    Tick serverOpen() const { return instant(kServerOpen); }   //!< TCB mint
    Tick serverClose() const { return instant(kServerClose); } //!< TCB end
    /** ConnSpanTrace::serviceLatency. */
    Tick serverService() const { return wide(kServerService); }
    /** Sum of exec-stage spans. */
    Tick serverExec() const { return serverExec_; }
    /** @} */

    Tick e2eLatency() const
    {
        const Tick start = clientStart();
        const Tick end = clientEnd();
        return end > start ? end - start : 0;
    }

    /** @name Writers (FleetTraceLog) */
    /** @{ */
    void setClientStart(Tick t);
    void setClientEnd(Tick t, bool ok);
    /** Count one balancer flow; the first also sets lbId, lbIngress and
     *  serverSlot. */
    void addLbFlow(Tick t, int lb, int slot);
    void addLbForward();
    /** Store the stitched machine span and mark the record stitched. */
    void setServerSpan(bool orderly, Tick open, Tick close, Tick service,
                       Tick exec);
    /** @} */

  private:
    /** The 40-bit fields: four instants, then the service latency. */
    enum Wide { kClientEnd, kLbIngress, kServerOpen, kServerClose,
                kServerService, kNumWide };
    static constexpr int kNumInstants = kServerService;
    enum Flag : std::uint8_t {
        kStarted = 1, kClientDone = 2, kOk = 4, kStitched = 8,
        kServerOrderly = 16,
    };

    bool has(Flag f) const { return (flags_ & f) != 0; }
    void set(Flag f, bool on)
    {
        flags_ = on ? flags_ | f : flags_ & ~f;
    }
    Tick wide(Wide w) const
    {
        return Tick{low_[w]} | Tick{high_[w]} << 32;
    }
    void setWide(Wide w, Tick v)
    {
        low_[w] = static_cast<std::uint32_t>(v);
        high_[w] = static_cast<std::uint8_t>(v >> 32);
    }
    /** An instant is its distance from base_ plus 2^39, so the field
     *  holds distances either way; the raw value 0 stands for tick 0. */
    static constexpr Tick kBias = Tick{1} << 39;
    Tick instant(Wide w) const
    {
        const Tick raw = wide(w);
        return raw == 0 ? 0 : Tick{base_} + raw - kBias;
    }
    void setInstant(Wide w, Tick t);

    std::uint64_t traceId_ = 0;
    /** clientStart once started, else the tick the record was made. */
    std::uint64_t base_ : 48 = 0;
    std::uint64_t lbForwards_ : 16 = 0;
    /** The 40-bit fields as a low word and a high byte, so the record
     *  packs with no padding. */
    std::uint32_t low_[kNumWide] = {};
    std::uint32_t serverExec_ = 0;
    std::uint8_t high_[kNumWide] = {};
    std::uint8_t serverSlot_ = 0;
    std::uint8_t lbFlows_ = 0;
    std::uint8_t lbId_ : 3 = 0;
    std::uint8_t flags_ : 5 = 0;
};

static_assert(sizeof(FleetTrace) == 48);

/**
 * Fleet-scope trace collector, owned by FleetTestbed. The client and
 * the balancers push hop records as they happen; each machine's
 * ConnSpanLog stitches its spans in as connections close, and collect
 * adds the spans still in flight (matching on ConnSpanTrace::traceId).
 *
 * Records live in chunked storage in first-seen order and are never
 * erased: appends never move or copy earlier records. An open-addressing
 * index of 8-byte slots maps a trace id to its record; the full id is
 * read from the record, so the index holds no keys.
 */
class FleetTraceLog
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Client minted @p trace_id and sent the first SYN. */
    void clientStart(std::uint64_t trace_id, Tick t);

    /** Client finished the request (closed loop: success or give-up). */
    void clientEnd(std::uint64_t trace_id, Tick t, bool ok);

    /** A balancer created a flow for @p trace_id steered to
     *  @p server_slot. Called again on failover (the retransmitted SYN
     *  lands on the adopting balancer); first call wins the ingress
     *  stamp, every call counts a flow. */
    void lbIngress(std::uint64_t trace_id, Tick t, int lb, int slot);

    /** A balancer NAT-rewrote one packet of @p trace_id (either
     *  direction). */
    void lbForward(std::uint64_t trace_id);

    /**
     * Join a machine-side span trace. When two machine spans claim the
     * same trace id (a reaped half-open TCB on the pre-failover
     * machine plus the one that actually served), an orderly close
     * beats a crash-finalized or live span, then the larger service
     * latency wins — deterministically the serving one. Remaining ties
     * go to the earlier open, the later close, then the larger exec
     * time: a total order, so the winner does not depend on the order
     * spans arrive in.
     */
    void stitchMachineSpan(const ConnSpanTrace &tr);

    /** @name Accounting (all deterministic) */
    /** @{ */
    std::uint64_t clientStarts() const { return clientStarts_; }
    std::uint64_t clientCompleted() const { return clientCompleted_; }
    /** Second clientStart on an already-finished id: a trace-id
     *  collision between distinct attempts. Must stay zero. */
    std::uint64_t duplicates() const { return duplicates_; }
    /** Machine spans joined to a record. */
    std::uint64_t machineSpansStitched() const { return stitched_; }
    /** Records appended (each may grow the chunked storage or the
     *  index); exactly zero when disabled. */
    std::uint64_t allocations() const { return allocations_; }
    /** @} */

    /** Completed-ok traces with no balancer record: the trace context
     *  was lost in flight. Must stay zero. */
    std::uint64_t orphans() const;

    /** Every record, in first-seen order. */
    const ChunkedVector<FleetTrace> &records() const { return records_; }

    /** Deterministic view: completed traces sorted by (clientStart,
     *  traceId). Reports and exports iterate this. */
    std::vector<const FleetTrace *> sortedCompleted() const;

  private:
    /** One index slot: a record reference and a fragment of its id. */
    struct IndexSlot
    {
        std::uint32_t ref = 0;  //!< record index + 1; 0 = empty slot
        std::uint32_t tag = 0;  //!< the id's high half, checked first
    };

    static std::uint32_t tagOf(std::uint64_t trace_id)
    {
        return static_cast<std::uint32_t>(trace_id >> 32);
    }

    /** The slot holding @p trace_id, else the empty slot ending its
     *  probe run. The index must be non-empty. */
    IndexSlot &slotFor(std::uint64_t trace_id);
    /** Size the index for one more record, re-indexing records_. */
    void reserveIndex();

    FleetTrace *find(std::uint64_t trace_id);
    /** The record for @p trace_id, appended (first seen at @p t) if new;
     *  @p created says which. */
    FleetTrace &findOrAdd(std::uint64_t trace_id, Tick t, bool &created);

    bool enabled_ = true;
    ChunkedVector<FleetTrace> records_;
    /** Trace id -> records_ index, linear probing from the id's low
     *  bits (ids are already hashed); a power of 2, under 3/4 full. */
    std::vector<IndexSlot> index_;
    std::uint64_t clientStarts_ = 0;
    std::uint64_t clientCompleted_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t stitched_ = 0;
    std::uint64_t allocations_ = 0;
};

/** Per-hop latency distribution over completed traces (ticks). */
struct FleetHopStat
{
    std::string hop;        //!< "wire", "lb-ingress", "lb-nat", ...
    Tick p50 = 0;
    Tick p99 = 0;
    Tick p999 = 0;
    Tick max = 0;
    /** Share of summed end-to-end latency attributed to this hop. */
    double share = 0.0;

    bool operator==(const FleetHopStat &) const = default;
};

/** End-to-end critical-path summary (the fleet --forensics block). */
struct FleetTraceForensics
{
    bool enabled = false;
    std::uint64_t tracesCompleted = 0;  //!< ok client finishes
    std::uint64_t orphans = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t stitched = 0;         //!< with a machine span joined
    Tick e2eP50 = 0;
    Tick e2eP99 = 0;
    Tick e2eP999 = 0;
    /** Hop stats in fixed order: wire, lb-ingress, lb-nat, server-exec,
     *  backend-rtt. */
    std::vector<FleetHopStat> hops;
    /** Hop with the largest slice of the exemplar trace picked at each
     *  end-to-end latency percentile. */
    std::string dominantP50;
    std::string dominantP99;
    std::string dominantP999;

    bool operator==(const FleetTraceForensics &) const = default;
};

/**
 * Build the critical-path summary over @p log's completed-ok traces.
 * @p forward_delay is the balancer's per-packet rewrite cost, used to
 * attribute lb-ingress (first SYN) and lb-nat (every further rewrite)
 * time.
 */
FleetTraceForensics buildFleetTraceForensics(const FleetTraceLog &log,
                                             Tick forward_delay);

/** Human-readable report (the fleet --forensics output). */
std::string renderFleetTraceReport(const FleetTraceForensics &f,
                                   const std::string &label);

} // namespace fsim

#endif // FSIM_TRACE_FLEET_TRACE_HH
