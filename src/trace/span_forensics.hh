/**
 * @file
 * Tail-latency forensics built on the per-connection span log: per-stage
 * latency percentiles plus p50/p99/p999 exemplar connections with a
 * critical-path stage breakdown. Answers "which stage makes p99 25x p50"
 * with named connections you can go look at.
 */

#ifndef FSIM_TRACE_SPAN_FORENSICS_HH
#define FSIM_TRACE_SPAN_FORENSICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/conn_span.hh"

namespace fsim
{

/** Distribution of one stage's per-connection total time (ticks). */
struct StagePercentiles
{
    ConnStage stage = ConnStage::kSynRx;
    /** Connections with at least one span of this stage. */
    std::uint64_t count = 0;
    Tick p50 = 0;
    Tick p90 = 0;
    Tick p99 = 0;
    Tick p999 = 0;
    Tick max = 0;
    /** Sum over all connections, for share-of-latency math. */
    std::uint64_t totalTicks = 0;

    bool operator==(const StagePercentiles &) const = default;
};

/** One exemplar connection picked at a latency percentile rank. */
struct ExemplarBreakdown
{
    std::string percentile; //!< "p50", "p99", "p999"
    std::uint64_t connId = 0;
    Tick latency = 0;       //!< service latency (open -> last write)
    /** Per-stage total ticks, indexed by ConnStage. */
    std::vector<Tick> stageTicks;
    /** Per-stage span counts, indexed by ConnStage. */
    std::vector<std::uint32_t> stageCounts;
    /** Distinct cores that executed spans of this connection. */
    std::vector<int> cores;
    /** Latency not covered by any exec/wait span (queue gaps, wire). */
    Tick unattributed = 0;

    bool operator==(const ExemplarBreakdown &) const = default;
};

/** Forensics summary over the measured window's completed connections. */
struct SpanForensics
{
    bool enabled = false;
    std::uint64_t completed = 0;  //!< completed traces in the window
    std::uint64_t live = 0;       //!< still-open traces at collect time
    std::uint64_t shed = 0;       //!< completed traces shed by admission
    std::uint64_t spansRecorded = 0;
    std::uint64_t spansDropped = 0;
    std::uint64_t tracesDropped = 0;
    /** Stages observed at least once, in ConnStage order. */
    std::vector<StagePercentiles> stages;
    /** p50 / p99 / p999 exemplars (present when completed > 0). */
    std::vector<ExemplarBreakdown> exemplars;
    /** Stage with the largest share of the p99 exemplar's latency
     *  (exec or wait stages only); empty when no exemplars. */
    std::string dominantTailStage;

    bool operator==(const SpanForensics &) const = default;
};

/**
 * Build forensics over completed traces [from_idx, end) of @p log.
 * Exemplars rank passive (client-facing) connections by service latency
 * with deterministic tie-breaks; falls back to all connections when no
 * passive ones completed.
 */
SpanForensics buildSpanForensics(const ConnSpanLog &log,
                                 std::size_t from_idx);

/** Human-readable report (the --forensics output). */
std::string renderSpanForensics(const SpanForensics &f,
                                const std::string &label);

} // namespace fsim

#endif // FSIM_TRACE_SPAN_FORENSICS_HH
