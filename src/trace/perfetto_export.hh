/**
 * @file
 * Chrome trace-event (Perfetto-loadable) exporter for connection span
 * traces: one track per simulated core carrying nested B/E duration
 * events, async b/e spans for queue waits, and flow arrows (s/f) that
 * follow a connection whenever consecutive exec spans land on different
 * cores — RFD locality is literally visible as the absence of arrows.
 */

#ifndef FSIM_TRACE_PERFETTO_EXPORT_HH
#define FSIM_TRACE_PERFETTO_EXPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/conn_span.hh"
#include "trace/fleet_trace.hh"

namespace fsim
{

/** Run identity stamped into otherData of the exported trace. */
struct PerfettoMeta
{
    std::string bench;
    std::string label;
    int cores = 0;
    /** Receive Flow Deliver enabled for this row (expectation: no
     *  cross-core flow arrows when true). */
    bool rfd = false;
};

/** Exporter statistics, returned for logging / assertions. */
struct PerfettoStats
{
    std::uint64_t durationEvents = 0;
    std::uint64_t waitEvents = 0;
    std::uint64_t flowPairs = 0;       //!< cross-core s/f pairs emitted
    std::uint64_t tracesExported = 0;
    bool truncated = false;
};

/** Connections one single-machine export writes at most, to keep
 *  files loadable. */
constexpr std::size_t kPerfettoMaxTraces = 20000;

/**
 * Write @p log's completed traces [@p from, @p to) as trace-event JSON
 * to @p path, read in place. Timestamps are raw simulator ticks
 * (integers; otherData.ts_unit records the unit). Exports at most
 * @p max_traces connections (completion order); with more, the export
 * is marked truncated. @return false on I/O error.
 */
bool writePerfettoTrace(const std::string &path, const ConnSpanLog &log,
                        std::size_t from, std::size_t to,
                        const PerfettoMeta &meta, PerfettoStats *stats,
                        std::size_t max_traces = kPerfettoMaxTraces);

/** Run identity for a fleet-scope export. */
struct FleetPerfettoMeta
{
    std::string bench;
    std::string label;
    int machines = 0;
    int balancers = 0;
};

/**
 * Write @p log's completed end-to-end traces as trace-event JSON: one
 * process track per client fleet / balancer / machine, an async span
 * per hop ("request" on the client track, "lb" on the balancer that
 * admitted the flow, "server" on the machine that served it) and a
 * cross-machine flow arrow from the balancer's ingress to the server
 * TCB mint for every stitched trace. Timestamps are raw ticks.
 * @return false on I/O error.
 */
bool writeFleetPerfettoTrace(const std::string &path,
                             const FleetTraceLog &log,
                             const FleetPerfettoMeta &meta,
                             PerfettoStats *stats,
                             std::size_t max_traces = 4096);

} // namespace fsim

#endif // FSIM_TRACE_PERFETTO_EXPORT_HH
