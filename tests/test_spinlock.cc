/**
 * @file
 * Unit tests for the simulated spinlock model.
 *
 * The central properties under test mirror the paper's claims:
 *  - a lock only ever taken from one core never contends (full partition);
 *  - cross-core overlapping critical sections contend and spin;
 *  - spins are bounded by the physical queue (cores x serialized cost);
 *  - sustained cross-core demand drives queueing delay up;
 *  - a lock taken from one core only is exactly its grant-and-hold tail,
 *    which is how the private per-core ehash models its bucket locks.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cpu/cache_model.hh"
#include "sim/rng.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"
#include "trace/tracer.hh"

namespace fsim
{
namespace
{

struct SpinFixture : public ::testing::Test
{
    LockRegistry reg;
    CacheModel cache{4, 400};
    LockClassStats *cls = reg.getClass("test");
    SimSpinLock lock;

    void
    SetUp() override
    {
        lock.init(cls, &cache, 40, 250);
    }
};

TEST(LockRegistry, TracerReachesClassesRegisteredEarlier)
{
    LockRegistry locks;
    LockClassStats *early = locks.getClass("early");
    Tracer tr(1);
    locks.setTracer(&tr);
    EXPECT_EQ(early->tracer, &tr);
    EXPECT_EQ(locks.getClass("late")->tracer, &tr);
}

TEST_F(SpinFixture, UncontendedAcquireCostsBasePlusCold)
{
    Tick end = lock.runLocked(0, 1000, 500);
    // base 40 + cold line touch 100 + hold 500.
    EXPECT_EQ(end, 1000u + 40 + 100 + 500);
    EXPECT_EQ(cls->acquisitions, 1u);
    EXPECT_EQ(cls->contentions, 0u);
    EXPECT_EQ(cls->waitTicks, 0u);
}

TEST_F(SpinFixture, SingleCoreNeverContends)
{
    Tick t = 0;
    for (int i = 0; i < 1000; ++i)
        t = lock.runLocked(0, t, 500);   // back-to-back, same core
    EXPECT_EQ(cls->acquisitions, 1000u);
    EXPECT_EQ(cls->contentions, 0u);
    EXPECT_EQ(cls->waitTicks, 0u);
}

TEST_F(SpinFixture, CrossCoreOverlapSpins)
{
    Tick end0 = lock.runLocked(0, 1000, 2000);
    EXPECT_GT(end0, 1000u);
    // Core 1 arrives in the middle of core 0's critical section.
    Tick end1 = lock.runLocked(1, 1500, 2000);
    EXPECT_GT(cls->waitTicks, 0u);
    EXPECT_GT(end1, 1500u + 2000u);
}

TEST_F(SpinFixture, OverlapWaitBoundedByCriticalSections)
{
    lock.runLocked(0, 1000, 500);
    // A wildly skewed earlier-cursor acquire must not wait more than a
    // couple of critical sections, even though freeAt is far ahead.
    lock.runLocked(1, 0, 500);
    // 2 * s_eff cap: s_eff >= 500+40+400; ensure wait below queue bound.
    EXPECT_LE(cls->maxWaitTicks, 3u * (500 + 40 + 400 + 4 * 250));
}

TEST_F(SpinFixture, SustainedCrossDemandContends)
{
    // Two cores hammering with gaps far below the serialized cost.
    Tick t0 = 0, t1 = 0;
    for (int i = 0; i < 500; ++i) {
        t0 = lock.runLocked(0, t0, 900);
        t1 = lock.runLocked(1, t1, 900);
    }
    EXPECT_GT(cls->contentions, 100u);
    EXPECT_GT(cls->waitTicks, 0u);
}

TEST_F(SpinFixture, HoldTicksAccumulate)
{
    lock.runLocked(0, 0, 123);
    lock.runLocked(0, 10000, 77);
    EXPECT_EQ(cls->holdTicks, 200u);
}

TEST_F(SpinFixture, LastHolderTracked)
{
    lock.runLocked(2, 0, 10);
    EXPECT_EQ(lock.lastHolder(), 2);
    lock.runLocked(3, 100000, 10);
    EXPECT_EQ(lock.lastHolder(), 3);
}

TEST(SpinLock, NullCacheWorks)
{
    LockRegistry reg;
    SimSpinLock lock;
    lock.init(reg.getClass("x"), nullptr, 40, 0);
    EXPECT_EQ(lock.runLocked(0, 100, 60), 200u);
}

TEST(SpinLock, ClassStatsAggregateAcrossInstances)
{
    LockRegistry reg;
    CacheModel cache(2, 400);
    LockClassStats *cls = reg.getClass("slock");
    SimSpinLock a, b;
    a.init(cls, &cache, 40, 250);
    b.init(cls, &cache, 40, 250);
    a.runLocked(0, 0, 10);
    b.runLocked(1, 0, 10);
    EXPECT_EQ(cls->acquisitions, 2u);
}

/**
 * Differential: one core's acquires through runLocked() and through the
 * bare grant-and-hold tail on a lone lock-word line (what a private
 * per-core ehash bucket holds) give the same end ticks, lockstat row and
 * cache traffic. Random cursors (including ones behind the previous
 * acquire) and random re-initialisations, which turn both lines cold
 * the way a private table's resize does.
 */
TEST(SpinLock, SingleCoreRunLockedEqualsGrantAndHoldTail)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        const CoreId c = static_cast<CoreId>(rng.range(4));
        LockRegistry regA, regB;
        CacheModel cacheA(4, 400), cacheB(4, 400);
        LockClassStats *a = regA.getClass("ehash.lock");
        LockClassStats *b = regB.getClass("ehash.lock");
        SimSpinLock lock;
        lock.init(a, &cacheA, 40, 250);
        b->bindCosts(&cacheB, 40, 250);
        CacheLine line;

        Tick t = 0;
        std::uint64_t colds = 0;
        for (int i = 0; i < 4000; ++i) {
            if (rng.chance(0.01)) {
                lock = SimSpinLock{};
                lock.init(a, &cacheA, 40, 250);
                line = CacheLine{};
            }
            // Mostly forward, sometimes behind the last cursor (skew).
            t = rng.chance(0.9) ? t + rng.range(2000)
                                : t - std::min<Tick>(t, rng.range(5000));
            const Tick hold = rng.range(1500);
            const bool cold = line.owner == kInvalidCore;
            colds += cold;
            const Tick endA = lock.runLocked(c, t, hold);
            const Tick endB = SimSpinLock::grantAndHold(*b, line, c, t, hold);
            ASSERT_EQ(endA, endB) << "seed " << seed << " op " << i;
            // Pinned independently of both paths: base + cold touch +
            // hold, never a wait.
            ASSERT_EQ(endB, t + 40 + (cold ? 100 : 0) + hold);
            ASSERT_EQ(lock.lastWait(), 0u);
        }
        EXPECT_EQ(a->acquisitions, b->acquisitions);
        EXPECT_EQ(a->acquisitions, 4000u);
        EXPECT_EQ(a->holdTicks, b->holdTicks);
        EXPECT_EQ(a->waitTicks, b->waitTicks);
        EXPECT_EQ(a->contentions, b->contentions);
        EXPECT_EQ(a->maxWaitTicks, b->maxWaitTicks);
        EXPECT_EQ(a->waitTicks, 0u);
        EXPECT_EQ(cacheA.accesses(c), cacheB.accesses(c));
        EXPECT_EQ(cacheA.misses(c), cacheB.misses(c));
        EXPECT_EQ(cacheB.accesses(c), 4000u);
        EXPECT_EQ(cacheB.misses(c), colds);
    }
}

/** Property: wait is always bounded by cores x serialized section. */
class SpinWaitBound : public ::testing::TestWithParam<int>
{
};

TEST_P(SpinWaitBound, CapHolds)
{
    int ncores = GetParam();
    LockRegistry reg;
    CacheModel cache(ncores, 400);
    LockClassStats *cls = reg.getClass("b");
    SimSpinLock lock;
    const Tick hold = 700;
    const Tick storm = 250;
    lock.init(cls, &cache, 40, storm);

    Tick t[32] = {};
    for (int i = 0; i < 2000; ++i) {
        int c = i % ncores;
        t[c] = lock.runLocked(c, t[c], hold);
    }
    Tick s_max = hold + 40 + 1000 +
                 storm * static_cast<Tick>(ncores);
    EXPECT_LE(cls->maxWaitTicks,
              static_cast<Tick>(ncores) * s_max);
}

INSTANTIATE_TEST_SUITE_P(Cores, SpinWaitBound,
                         ::testing::Values(2, 4, 8, 16, 24));

} // anonymous namespace
} // namespace fsim
