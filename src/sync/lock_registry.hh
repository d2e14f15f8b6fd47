/**
 * @file
 * Lockstat-style accounting of simulated lock classes.
 *
 * Like Linux's lockstat, statistics are aggregated per lock *class*
 * (e.g. all per-socket "slock" instances feed one row), which is exactly
 * the granularity of the paper's Table 1.
 */

#ifndef FSIM_SYNC_LOCK_REGISTRY_HH
#define FSIM_SYNC_LOCK_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

class CacheModel;
class Tracer;

/** Aggregated statistics for one class of locks. */
struct LockClassStats
{
    std::string name;
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;   //!< acquisitions that had to wait
    std::uint64_t waitTicks = 0;     //!< total cycles spent spinning
    std::uint64_t holdTicks = 0;     //!< total cycles held
    Tick maxWaitTicks = 0;
    /** Small stable id naming the class in lock-wait span stages. */
    std::uint16_t traceId = 0;
    /** Machine tracer (set via LockRegistry::setTracer; may be null).
     *  Locks reach the tracer through their class row so that the many
     *  SimSpinLock::init call sites keep their signature. */
    Tracer *tracer = nullptr;

    /** @name Cost model shared by every lock of the class
     *  Bound by the first lock's init; every later init must pass the
     *  same values. Held here rather than in each lock, so that a
     *  SimSpinLock fits one cache line. */
    /** @{ */
    bool costsBound = false;
    CacheModel *cache = nullptr;    //!< null: cost-free locks (tests)
    Tick baseCost = 0;              //!< uncontended acquire + release
    Tick stormCost = 0;             //!< handoff storm per spinner
    /** Bind the class's costs, or check that they match the bound
     *  ones. */
    void bindCosts(CacheModel *c, Tick base_cost, Tick storm_cost);
    /** @} */
};

/** Registry mapping class names to their aggregated statistics. */
class LockRegistry
{
  public:
    /** Fetch (creating on first use) the stats row for @p name. */
    LockClassStats *getClass(const std::string &name);

    /**
     * Attach the machine's tracer: existing and future classes get the
     * pointer, and components constructed with a LockRegistry reference
     * (epoll) use this as their tracer rendezvous too.
     */
    void setTracer(Tracer *tracer);
    Tracer *tracer() const { return tracer_; }

    /** All classes in registration order. */
    std::vector<const LockClassStats *> classes() const;

    /** Copy of the current counters, for window (before/after) diffing. */
    std::map<std::string, LockClassStats> snapshot() const;

    /**
     * Contention-count delta of class @p name between @p before and the
     * current counters. Returns 0 for unknown classes.
     */
    std::uint64_t contentionDelta(
        const std::map<std::string, LockClassStats> &before,
        const std::string &name) const;

  private:
    std::vector<std::unique_ptr<LockClassStats>> order_;
    std::map<std::string, LockClassStats *> byName_;
    Tracer *tracer_ = nullptr;
};

} // namespace fsim

#endif // FSIM_SYNC_LOCK_REGISTRY_HH
