/**
 * @file
 * Unit tests for the simulated spinlock model.
 *
 * The central properties under test mirror the paper's claims:
 *  - a lock only ever taken from one core never contends (full partition);
 *  - cross-core overlapping critical sections contend and spin;
 *  - spins are bounded by the physical queue (cores x serialized cost);
 *  - sustained cross-core demand drives queueing delay up.
 */

#include <gtest/gtest.h>

#include "cpu/cache_model.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"

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
