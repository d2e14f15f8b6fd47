/**
 * @file
 * Simulated spinlocks.
 *
 * A SimSpinLock serializes simulated critical sections in virtual time.
 * The caller declares the critical-section length (hold) when acquiring:
 * an acquire at tick t while the lock is busy until tick f > t spins (the
 * caller's timeline jumps to f), records one contention and the wait
 * cycles, and pays a cache-line transfer penalty whenever the lock word
 * last moved through another core. The transfer penalty grows the hold
 * window the next waiter sees, which is what makes hot global spinlocks
 * collapse superlinearly with core count — the central effect behind the
 * paper's Figure 4 curves.
 *
 * Committing the hold at acquire time (rather than at release) matches
 * the physics of short critical sections: a waiter resumes when the
 * holder leaves the section, never later — a holder's unrelated
 * downstream stalls must not convoy its waiters.
 */

#ifndef FSIM_SYNC_SPINLOCK_HH
#define FSIM_SYNC_SPINLOCK_HH

#include <cstdint>

#include "cpu/cache_model.hh"
#include "sim/types.hh"
#include "sync/lock_registry.hh"

namespace fsim
{

/** A simulated spinlock instance belonging to a lock class. */
class SimSpinLock
{
  public:
    SimSpinLock() = default;

    /**
     * Bind this lock to its class; the lock word's cache line starts
     * cold. The cache model and costs belong to the class: the first
     * init of a class binds them, and later inits must match.
     *
     * @param cls Aggregated stats row (shared by the whole class).
     * @param cache Cache model; may be null for cost-free locks in tests.
     * @param base_cost Uncontended acquire+release cycles.
     */
    void init(LockClassStats *cls, CacheModel *cache, Tick base_cost,
              Tick handoff_storm = 150);

    /**
     * Acquire at tick @p t from core @p c for a critical section of
     * @p hold cycles.
     *
     * @return The tick at which the critical section *ends* (i.e. the
     *         caller's timeline after acquire + hold + release).
     */
    Tick runLocked(CoreId c, Tick t, Tick hold);

    /**
     * The grant-and-hold tail of every acquire, once its wait is known:
     * charge the class's base cost and the transfer of the lock word's
     * @p line to core @p c, then hold for @p hold cycles.
     *
     * runLocked() calls it after computing the wait. A lock taken only
     * by one core never waits, so such a lock needs no instance at all:
     * its owner calls this on a bare lock-word line (Fastsocket's
     * private per-core tables, see EstablishedTable).
     *
     * @return The tick at which the critical section ends.
     */
    static Tick grantAndHold(LockClassStats &cls, CacheLine &line,
                             CoreId c, Tick t, Tick hold);

    /** Tick until which the lock is committed (tests/diagnostics). */
    Tick busyUntil() const { return freeAt_; }
    CoreId lastHolder() const { return lastHolder_; }

    /** Spin cycles paid by the most recent runLocked() call (0 when it
     *  acquired uncontended) — lets callers attribute the wait to the
     *  connection being serviced. */
    Tick lastWait() const { return lastWait_; }

    /** Trace id of the owning lock class (0 when unbound). */
    std::uint16_t classTraceId() const
    {
        return cls_ ? cls_->traceId : 0;
    }

  private:
    LockClassStats *cls_ = nullptr;   //!< also holds the cost model
    Tick freeAt_ = 0;
    Tick lastWait_ = 0;
    CoreId lastHolder_ = kInvalidCore;
    CacheLine line_;   //!< the lock word's line (costed when cache_ set)
    Tick lastT_ = 0;           //!< previous acquisition tick
    double gapEwma_ = 1e9;     //!< mean inter-acquisition gap estimate
    double contAccum_ = 0.0;   //!< fractional contention accumulator
    double crossEwma_ = 0.0;   //!< fraction of owner-changing acquires
};

// Thousands of per-bucket and per-socket locks: one cache line each.
static_assert(sizeof(SimSpinLock) == 64);

} // namespace fsim

#endif // FSIM_SYNC_SPINLOCK_HH
