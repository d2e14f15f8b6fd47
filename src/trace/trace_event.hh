/**
 * @file
 * Phase and queue vocabulary of the simulated perf/ftrace layer.
 *
 * Phases are the buckets the PhaseAccounting layer attributes every
 * simulated cycle to, reproducing the paper's Figure 5-style CPU
 * breakdowns for any workload; queue ids name the depth series the
 * tracer keeps for the accept queues and the per-core task backlogs.
 */

#ifndef FSIM_TRACE_TRACE_EVENT_HH
#define FSIM_TRACE_TRACE_EVENT_HH

#include <cstdint>

#include "sim/types.hh"

namespace fsim
{

/**
 * Execution phase a simulated cycle is charged to.
 *
 * kIdle is derived (window span minus attributed cycles) rather than
 * charged, so it is last and excluded from kNumChargedPhases.
 */
enum class Phase : std::uint8_t
{
    kApp = 0,        //!< process-context application work
    kSyscall,        //!< kernel syscall surface (accept/read/write/...)
    kSoftirq,        //!< NET_RX / timer SoftIRQ context
    kLockSpin,       //!< spinning on a simulated lock
    kCacheStall,     //!< remote cache-line transfer penalties
    kIdle,           //!< derived: core had no work
};

/** Number of phases that receive direct cycle charges. */
constexpr int kNumChargedPhases = static_cast<int>(Phase::kIdle);

/** Total number of phases including the derived idle phase. */
constexpr int kNumPhases = kNumChargedPhases + 1;

/** Stable lowercase phase name ("app", "syscall", "lock-spin", ...). */
const char *phaseName(Phase p);

/** Queues whose depth the tracer records, one series each. */
enum class TraceQueueId : std::uint16_t
{
    kAcceptShared = 0,   //!< global/shared listen socket accept queue
    kAcceptLocal,        //!< Local Listen Table clone accept queue
    kAcceptReuseport,    //!< SO_REUSEPORT clone accept queue
    kSoftirqBacklog,     //!< per-core SoftIRQ task backlog
    kProcessBacklog,     //!< per-core process-context task backlog
};

/** Number of TraceQueueId values. */
constexpr int kNumTraceQueues =
    static_cast<int>(TraceQueueId::kProcessBacklog) + 1;

/** Stable queue name used by reports and the JSON exporter. */
const char *traceQueueName(TraceQueueId q);

} // namespace fsim

#endif // FSIM_TRACE_TRACE_EVENT_HH
