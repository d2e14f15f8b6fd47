#include "sync/spinlock.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace fsim
{

void
SimSpinLock::init(LockClassStats *cls, CacheModel *cache, Tick base_cost,
                  Tick handoff_storm)
{
    cls->bindCosts(cache, base_cost, handoff_storm);
    cls_ = cls;
    line_ = CacheLine{};
}

Tick
SimSpinLock::runLocked(CoreId c, Tick t, Tick hold)
{
    fsim_assert(cls_ != nullptr);
    ++cls_->acquisitions;

    const int max_queue = cls_->cache ? cls_->cache->numCores() : 32;
    const Tick miss = cls_->cache ? cls_->cache->missPenalty() : 0;
    const double s0 = static_cast<double>(hold + cls_->baseCost + miss);

    // Demand estimate: exponentially averaged inter-acquisition gap in
    // virtual time. Coarse-task cursor skew averages out of the mean.
    Tick gap = t > lastT_ ? t - lastT_ : 0;
    lastT_ = std::max(lastT_, t);
    gapEwma_ += (static_cast<double>(gap) - gapEwma_) / 8.0;
    double mean_gap = std::max(gapEwma_, 1.0);

    // Fraction of acquisitions that change the owning core. A lock that
    // is only ever taken by one core (Fastsocket's partitioned state)
    // never contends, no matter how hot it is; a shared lock contends
    // even when one core happens to batch several acquisitions.
    bool cross = lastHolder_ != kInvalidCore && lastHolder_ != c;
    crossEwma_ += ((cross ? 1.0 : 0.0) - crossEwma_) / 32.0;

    Tick wait = 0;
    if (cross || crossEwma_ > 0.02) {
        // (a) Queueing term: when demand approaches the serialized
        // capacity of the lock, waiters pile up. Each already-spinning
        // core adds a handoff storm (every spinner re-reads the line on
        // release), so the serialized cost itself grows with utilization
        // — the superlinear-collapse mechanism of hot global spinlocks.
        double rho0 = std::min(1.0, s0 / mean_gap);
        double spinners = rho0 * static_cast<double>(max_queue - 1);
        double s_eff = s0 + static_cast<double>(cls_->stormCost) * spinners;
        double rho = s_eff / mean_gap;
        // Mean spin ~ queue-depth/2 critical sections; the queue is
        // physically bounded by the core count.
        double depth = rho < 1.0
            ? std::min(rho / (1.0 - rho),
                       static_cast<double>(max_queue - 1))
            : static_cast<double>(max_queue - 1);
        double wq = 0.5 * s_eff * depth;

        // (b) Overlap term: two contexts racing on this very lock right
        // now (e.g. SoftIRQ vs syscall on one socket). The wait is at
        // most the other side's critical section (+ transfer); the raw
        // freeAt_ delta also contains coarse-task cursor skew, which
        // must not be charged.
        double wo = 0.0;
        bool true_race = false;
        if (freeAt_ > t) {
            double delta = static_cast<double>(freeAt_ - t);
            // A genuine race leaves the lock busy for at most one
            // critical section; larger deltas are echoes of task
            // granularity (one coarse task's cursor ran far ahead).
            true_race = delta <= s_eff;
            wo = std::min(delta, 2.0 * s_eff);
        }

        double w = std::min(std::max(wq, wo),
                            static_cast<double>(max_queue - 1) * s_eff);
        if (w >= 1.0) {
            wait = static_cast<Tick>(w);
            cls_->waitTicks += wait;
            cls_->maxWaitTicks = std::max(cls_->maxWaitTicks, wait);
            if (cls_->tracer)
                cls_->tracer->noteLockSpin(c, wait);
            // Contention counting: demand-driven spins count at rate rho
            // (PASTA); true instantaneous races count fully; skew echoes
            // barely count.
            contAccum_ += std::min(1.0, rho) +
                          (true_race ? 0.6 : (freeAt_ > t ? 0.03 : 0.0));
            if (contAccum_ >= 1.0) {
                contAccum_ -= 1.0;
                ++cls_->contentions;
            }
        }
    }

    lastWait_ = wait;

    Tick grant = t + wait + cls_->baseCost;
    // Pulling the lock word (and by extension the data it guards) from a
    // different core's cache delays the critical section further.
    if (cls_->cache)
        grant += cls_->cache->access(c, line_, /*write=*/true);

    Tick end = grant + hold;
    freeAt_ = end;
    lastHolder_ = c;
    cls_->holdTicks += end - grant;
    return end;
}

void
SimRwLock::init(LockClassStats *cls, CacheModel *cache, Tick base_cost,
                Tick handoff_storm)
{
    cls->bindCosts(cache, base_cost, handoff_storm);
    cls_ = cls;
    line_ = CacheLine{};
}

Tick
SimRwLock::contendedGrant(CoreId c, Tick t, Tick busy_until, Tick hold)
{
    int max_queue = cls_->cache ? cls_->cache->numCores() : 32;
    if (busy_until <= t) {
        streak_ /= 2;
        return t;
    }
    ++cls_->contentions;
    streak_ = std::min(streak_ + 1, max_queue);
    Tick storm = cls_->stormCost * static_cast<Tick>(streak_);
    Tick serialized = hold + cls_->baseCost + storm +
                      (cls_->cache ? cls_->cache->missPenalty() : 0);
    Tick wait = std::min(busy_until - t,
                         serialized * static_cast<Tick>(streak_));
    cls_->waitTicks += wait;
    cls_->maxWaitTicks = std::max(cls_->maxWaitTicks, wait);
    if (cls_->tracer)
        cls_->tracer->noteLockSpin(c, wait + storm);
    return t + wait + storm;
}

Tick
SimRwLock::runReadLocked(CoreId c, Tick t, Tick hold)
{
    fsim_assert(cls_ != nullptr);
    ++cls_->acquisitions;
    Tick grant = contendedGrant(c, t, writeFreeAt_, hold);
    grant += cls_->baseCost;
    if (cls_->cache)
        grant += cls_->cache->access(c, line_, /*write=*/false);
    Tick end = grant + hold;
    readFreeAt_ = std::max(readFreeAt_, end);
    cls_->holdTicks += hold;
    return end;
}

Tick
SimRwLock::runWriteLocked(CoreId c, Tick t, Tick hold)
{
    fsim_assert(cls_ != nullptr);
    ++cls_->acquisitions;
    Tick grant = contendedGrant(c, t,
                                std::max(writeFreeAt_, readFreeAt_),
                                hold);
    grant += cls_->baseCost;
    if (cls_->cache)
        grant += cls_->cache->access(c, line_, /*write=*/true);
    Tick end = grant + hold;
    writeFreeAt_ = end;
    lastHolder_ = c;
    cls_->holdTicks += hold;
    return end;
}

} // namespace fsim
