/**
 * @file
 * Report generators over trace data: per-core phase breakdown tables
 * (the paper's Figure 5 / Table 1 analysis for any bench), folded-stack
 * output consumable by standard flamegraph tooling, and queue-depth
 * timelines read from the tracer's per-queue depth series.
 */

#ifndef FSIM_TRACE_TRACE_REPORT_HH
#define FSIM_TRACE_TRACE_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/table.hh"
#include "trace/tracer.hh"

namespace fsim
{

/**
 * Per-core phase fractions over a window.
 *
 * Fractions are normalized so each core's sum over all phases
 * (including the derived idle phase) is exactly 1 when the window is
 * non-empty: idle absorbs the unattributed remainder, and a core whose
 * in-flight task ran past the window end is scaled down pro rata.
 */
struct PhaseBreakdown
{
    /** fractions[core][phase], indexed by Phase (idle included). */
    std::vector<std::array<double, kNumPhases>> fractions;

    /** Machine-wide fraction of one phase (mean over cores). */
    double total(Phase p) const;
};

/** Attribute a window's cycles: @p d over @p span ticks per core. */
PhaseBreakdown phaseBreakdown(const PhaseSnapshot &d, Tick span);

/** Render the breakdown as a fixed-width table (Fig. 5 style). */
TextTable phaseBreakdownTable(const PhaseBreakdown &b);

/**
 * Folded-stack lines ("softirq;lock-spin <cycles>"), heaviest first —
 * pipe into flamegraph.pl / inferno to render a flamegraph.
 */
std::vector<std::pair<std::string, std::uint64_t>> foldedStacks(
    const PhaseSnapshot &d);

/** One queue-depth series bucket: its start tick and peak depth. */
struct QueueSample
{
    Tick tick = 0;
    std::uint32_t depth = 0;
    TraceQueueId queue = TraceQueueId::kAcceptShared;
};

/**
 * Depth timeline of @p queue across all cores, oldest first: one sample
 * per noted bucket of its series (at most DepthSeries::kMaxBuckets),
 * covering everything noted since the last resetQueueDepths().
 */
std::vector<QueueSample> queueTimeline(const Tracer &tracer,
                                       TraceQueueId queue);

} // namespace fsim

#endif // FSIM_TRACE_TRACE_REPORT_HH
