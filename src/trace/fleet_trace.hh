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

/** One end-to-end request trace, stitched across fleet hops. */
struct FleetTrace
{
    std::uint64_t traceId = 0;

    /** @name Client hop (HttpLoad) */
    /** @{ */
    Tick clientStart = 0;       //!< launch (SYN minted)
    Tick clientEnd = 0;         //!< closed-loop finish (ok or failed)
    bool clientDone = false;
    bool ok = false;
    /** @} */

    /** @name Balancer hop (L4 full NAT) */
    /** @{ */
    int lbId = -1;              //!< first balancer that created a flow
    Tick lbIngress = 0;         //!< first SYN arrival at a VIP
    std::uint32_t lbFlows = 0;  //!< flow entries created (failover -> >1)
    std::uint32_t lbForwards = 0;   //!< packets NAT-rewritten, both ways
    int serverSlot = -1;        //!< machine slot the flow steered to
    /** @} */

    /** @name Server-machine hop (stitched from ConnSpanLog) */
    /** @{ */
    bool stitched = false;
    bool serverOrderly = false; //!< span closed via TCB destruction
    Tick serverOpen = 0;        //!< TCB mint (SYN rx)
    Tick serverClose = 0;       //!< TCB destruction
    Tick serverService = 0;     //!< ConnSpanTrace::serviceLatency
    Tick serverExec = 0;        //!< sum of exec-stage spans
    /** @} */

    Tick e2eLatency() const
    {
        return clientEnd > clientStart ? clientEnd - clientStart : 0;
    }
};

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
    /** The record for @p trace_id, appended if new (@p created says). */
    FleetTrace &findOrAdd(std::uint64_t trace_id, bool &created);

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
