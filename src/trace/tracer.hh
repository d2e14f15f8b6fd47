/**
 * @file
 * The per-machine tracer: the simulator's perf + ftrace + /proc/lockstat.
 *
 * Owns one TraceRing per core, the PhaseAccounting layer and the
 * ConnSpanLog. Ring emission is branch-cheap; each ring allocates once,
 * at its first event, so an untraced machine holds no ring storage. Phase
 * accounting allocates only the first time a folded stack shape is
 * seen, and the span log only while its live population reaches a new
 * peak — plus, on a single-machine testbed with no fleet log attached,
 * the chunks that retain completed traces. So the steady state of a
 * traced fleet is close to allocation-free, not exactly so.
 * Components reached through long init chains (locks, epoll, VFS) find
 * the tracer through the LockRegistry instead of growing their
 * constructor signatures.
 */

#ifndef FSIM_TRACE_TRACER_HH
#define FSIM_TRACE_TRACER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"
#include "trace/conn_span.hh"
#include "trace/phase_accounting.hh"
#include "trace/trace_event.hh"
#include "trace/trace_ring.hh"

namespace fsim
{

/** Per-machine trace subsystem. */
class Tracer
{
  public:
    /** Default per-core ring capacity (events). */
    static constexpr std::size_t kDefaultRingCapacity = 8192;

    explicit Tracer(int n_cores,
                    std::size_t ring_capacity = kDefaultRingCapacity);

    /** Master switch; rings, phase charges and the span log honor it. */
    void
    setEnabled(bool on)
    {
        enabled_ = on;
        spans_.setEnabled(on);
    }
    bool enabled() const { return enabled_; }

    /** Record an event into core @p c's ring. */
    void
    emit(CoreId c, TraceEventType type, Tick tick, std::uint32_t arg = 0,
         std::uint16_t id = 0)
    {
        if (!enabled_)
            return;
        TraceEvent ev;
        ev.tick = tick;
        ev.arg = arg;
        ev.id = id;
        ev.type = type;
        rings_[c].push(ev);
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

    /** Convenience hook for lock spins: event pair + phase charge. */
    void
    noteLockSpin(CoreId c, Tick t, Tick spin, std::uint16_t lock_class)
    {
        if (!enabled_ || spin == 0)
            return;
        emit(c, TraceEventType::kLockSpinBegin, t,
             static_cast<std::uint32_t>(spin), lock_class);
        emit(c, TraceEventType::kLockSpinEnd, t + spin, 0, lock_class);
        phases_.charge(c, Phase::kLockSpin, spin);
    }

    /** Convenience hook for cache stalls: phase charge only (too hot
     *  for per-access events). */
    void
    noteCacheStall(CoreId c, Tick cycles)
    {
        if (enabled_)
            phases_.charge(c, Phase::kCacheStall, cycles);
    }

    const TraceRing &ring(CoreId c) const { return rings_.at(c); }
    int numCores() const { return static_cast<int>(rings_.size()); }

    PhaseSnapshot phaseSnapshot() const { return phases_.snapshot(); }
    const PhaseAccounting &phases() const { return phases_; }

    /** Total events recorded / overwritten across all rings. */
    std::uint64_t eventsRecorded() const;
    std::uint64_t eventsOverwritten() const;

    /** Events overwritten in core @p c's ring alone. */
    std::uint64_t eventsOverwritten(CoreId c) const;

    /** Per-connection lifecycle span log. */
    ConnSpanLog &connSpans() { return spans_; }
    const ConnSpanLog &connSpans() const { return spans_; }

  private:
    bool enabled_ = true;
    std::vector<TraceRing> rings_;
    PhaseAccounting phases_;
    ConnSpanLog spans_;
};

} // namespace fsim

#endif // FSIM_TRACE_TRACER_HH
