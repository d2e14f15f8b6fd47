/**
 * @file
 * The per-machine tracer: the simulator's perf + ftrace + /proc/lockstat.
 *
 * Owns one DepthSeries per TraceQueueId, the PhaseAccounting layer and
 * the ConnSpanLog. A queue series allocates once, at its first note, so
 * an untraced machine holds no series storage. Phase accounting
 * allocates only the first time a folded stack shape is seen, and the
 * span log only while its live population reaches a new peak — plus,
 * on a single-machine testbed with no fleet log attached, the chunks
 * that retain completed traces. So the steady state of a traced fleet
 * is close to allocation-free, not exactly so.
 * Components reached through long init chains (locks, epoll) find
 * the tracer through the LockRegistry instead of growing their
 * constructor signatures.
 */

#ifndef FSIM_TRACE_TRACER_HH
#define FSIM_TRACE_TRACER_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"
#include "trace/conn_span.hh"
#include "trace/depth_series.hh"
#include "trace/phase_accounting.hh"
#include "trace/trace_event.hh"

namespace fsim
{

/** Per-machine trace subsystem. */
class Tracer
{
  public:
    explicit Tracer(int n_cores);

    /** Master switch; queue series, phase charges and the span log
     *  honor it. */
    void
    setEnabled(bool on)
    {
        enabled_ = on;
        spans_.setEnabled(on);
    }
    bool enabled() const { return enabled_; }

    /** Note that @p queue held @p depth at @p tick. */
    void
    noteQueueDepth(TraceQueueId queue, Tick tick, std::uint32_t depth)
    {
        if (enabled_)
            queues_[static_cast<int>(queue)].note(tick, depth);
    }

    /** Restart every queue series at @p origin (the window start). */
    void resetQueueDepths(Tick origin);

    const DepthSeries &
    queueDepths(TraceQueueId queue) const
    {
        return queues_[static_cast<int>(queue)];
    }

    /** @name Phase attribution (see PhaseAccounting) */
    /** @{ */
    void
    pushPhase(CoreId c, Phase p, Tick t)
    {
        if (enabled_)
            phases_.push(c, p, t);
    }

    void
    popPhase(CoreId c, Tick t)
    {
        if (enabled_)
            phases_.pop(c, t);
    }

    void
    chargePhase(CoreId c, Phase p, Tick cycles)
    {
        if (enabled_)
            phases_.charge(c, p, cycles);
    }
    /** @} */

    /** Convenience hook for lock spins: phase charge only. */
    void
    noteLockSpin(CoreId c, Tick spin)
    {
        if (enabled_ && spin > 0)
            phases_.charge(c, Phase::kLockSpin, spin);
    }

    /** Convenience hook for cache stalls: phase charge only. */
    void
    noteCacheStall(CoreId c, Tick cycles)
    {
        if (enabled_)
            phases_.charge(c, Phase::kCacheStall, cycles);
    }

    int numCores() const { return phases_.numCores(); }

    PhaseSnapshot phaseSnapshot() const { return phases_.snapshot(); }
    const PhaseAccounting &phases() const { return phases_; }

    /** Per-connection lifecycle span log. */
    ConnSpanLog &connSpans() { return spans_; }
    const ConnSpanLog &connSpans() const { return spans_; }

  private:
    bool enabled_ = true;
    std::array<DepthSeries, kNumTraceQueues> queues_;
    PhaseAccounting phases_;
    ConnSpanLog spans_;
};

} // namespace fsim

#endif // FSIM_TRACE_TRACER_HH
