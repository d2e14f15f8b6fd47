/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "harness/experiment.hh"
#include "sim/event_queue.hh"

namespace fsim
{
namespace
{

TEST(EventQueue, StartsAtTimeZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.now(); });
    eq.runOne();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();
    Tick seen = 0;
    eq.scheduleIn(5, [&] { seen = eq.now(); });
    eq.runOne();
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    EXPECT_EQ(eq.runAll(), 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {10u, 20u, 30u, 40u})
        eq.schedule(t, [&fired, t] { fired.push_back(t); });
    eq.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 2u);
}

TEST(EventQueue, RunUntilAdvancesNowWhenDrained)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, ExecutedCountsAcrossRuns)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.runUntil(3);
    EXPECT_EQ(eq.executed(), 4u);
    eq.runAll();
    EXPECT_EQ(eq.executed(), 7u);
}

#ifndef NDEBUG
TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}
#else
TEST(EventQueue, SchedulingIntoThePastClampsToNowInRelease)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();
    // Release builds clamp to now() and count the slip instead of
    // dying mid-bench; the event still runs, FIFO at the current tick.
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(2); });
    EXPECT_EQ(eq.clampedPast(), 1u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), 100u);
}
#endif

TEST(EventQueue, TickOverflowNearMax)
{
    // Events parked at and just below the last representable tick must
    // survive epoch spills whose spans approach the full 64-bit range:
    // all ladder bucket math is (when - start) / width, never
    // start + nbuckets * width, so nothing here can wrap.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(kTickMax, [&] { order.push_back(3); });
    eq.schedule(kTickMax - 1, [&] { order.push_back(2); });
    eq.schedule(kTickMax, [&] { order.push_back(4); });   // FIFO tie
    eq.schedule(7, [&] { order.push_back(1); });
    EXPECT_EQ(eq.runAll(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), kTickMax);
    // runUntil at the limit of time on an already-drained queue.
    eq.runUntil(kTickMax);
    EXPECT_EQ(eq.now(), kTickMax);
    // scheduleIn(0) at the end of time still works.
    bool ran = false;
    eq.scheduleIn(0, [&] { ran = true; });
    eq.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SpillOverTheWholeTickRangeThenSpillAgain)
{
    // The top only takes events at or past the epoch boundary, which
    // is at least tick 1, so the widest spill covers [1, kTickMax]. The
    // next spill sizes its rung from that span (2^64 - 1 ticks) and
    // here spans 0 ticks: neither may wrap the rate estimate.
    EventQueue eq;
    std::vector<Tick> fired;
    auto record = [&fired, &eq] { fired.push_back(eq.now()); };
    // 129 events at tick 0 overflow the pure bottom into a one-bucket
    // rung ending at tick 1; everything later parks in the top.
    for (int i = 0; i < 129; ++i)
        eq.schedule(0, record);
    // 100 top events from tick 1 to kTickMax: one spill over the whole
    // range. The first to run parks 70 more at kTickMax, past the new
    // epoch boundary, for a second spill of span 0.
    constexpr Tick kStep = kTickMax / 99;
    eq.schedule(1, [&] {
        record();
        for (int i = 0; i < 70; ++i)
            eq.schedule(kTickMax, record);
    });
    for (Tick i = 1; i < 99; ++i)
        eq.schedule(i * kStep, record);
    eq.schedule(kTickMax, record);
    EXPECT_EQ(eq.runAll(), 129u + 100u + 70u);
    ASSERT_EQ(fired.size(), 299u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired[129], 1u);
    EXPECT_EQ(fired.back(), kTickMax);
    EXPECT_EQ(std::count(fired.begin(), fired.end(), kTickMax), 71);
}

TEST(EventQueue, WideSpreadStillOrdersTotally)
{
    // One event per power-of-two tick: spans wide enough that a single
    // epoch covers most of the 64-bit range, forcing maximal-width
    // buckets and recursive rung subdivision.
    EventQueue eq;
    std::vector<Tick> fired;
    for (int bit = 62; bit >= 1; --bit) {
        const Tick when = Tick{1} << bit;
        eq.schedule(when, [&fired, when] { fired.push_back(when); });
    }
    EXPECT_EQ(eq.runAll(), 62u);
    ASSERT_EQ(fired.size(), 62u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i]);
}

TEST(EventQueue, RunAllWithSelfReschedulingEvents)
{
    // A handler that keeps rescheduling itself exercises node slab
    // recycling across ~100k epochs; runAll must terminate exactly
    // when the chain stops and account every hop.
    EventQueue eq;
    std::uint64_t hops = 0;
    constexpr std::uint64_t kHops = 100'000;
    std::function<void()> chain = [&] {
        if (++hops < kHops)
            eq.scheduleIn(1 + hops % 1000, chain);
    };
    eq.schedule(0, chain);
    EXPECT_EQ(eq.runAll(), kHops);
    EXPECT_EQ(eq.executed(), kHops);
    EXPECT_EQ(eq.pending(), 0u);
    // The slab never grows past the live-event high-water mark
    // (rounded up to one chunk): recycling, not leaking.
    EXPECT_LE(eq.slabCapacity(), 4096u);
}

TEST(EventQueue, StatsCountersTrackActivity)
{
    EventQueue eq;
    EXPECT_EQ(eq.scheduled(), 0u);
    EXPECT_EQ(eq.clampedPast(), 0u);
    for (int i = 0; i < 100; ++i)
        eq.schedule(i * 1000, [] {});
    EXPECT_EQ(eq.scheduled(), 100u);
    EXPECT_EQ(eq.peakPending(), 100u);
    eq.runAll();
    EXPECT_EQ(eq.peakPending(), 100u);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueue, TwentyFourCoreNginxBucketsMostEventsOnce)
{
    // A 24-core Fastsocket nginx run schedules ~17x an epoch's spilled
    // batch into the epoch while it drains. A rung sized from the batch
    // alone re-pushes nearly every event into a sub-rung (96% here); one
    // sized from the last epoch's inserts re-pushes under a tenth.
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 24;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.machine.seed = 1;
    cfg.machine.traceEnabled = false;
    cfg.checkLevel = CheckLevel::kOff;
    cfg.concurrencyPerCore = 400;
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.0;
    Testbed bed(cfg);
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.1));
    const EventQueue &eq = bed.eventQueue();
    ASSERT_GT(eq.scheduled(), 100'000u);
    EXPECT_LE(eq.rebucketed(), eq.scheduled() / 10)
        << eq.rebucketed() << " of " << eq.scheduled()
        << " scheduled events re-pushed into a sub-rung";
}

/** Property: with random schedule times, execution is monotone in time. */
class EventQueueOrderProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EventQueueOrderProperty, MonotoneExecution)
{
    EventQueue eq;
    std::vector<Tick> fired;
    unsigned seed = GetParam();
    std::uint64_t state = seed * 2654435761u + 1;
    for (int i = 0; i < 200; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        Tick when = (state >> 33) % 10000;
        eq.schedule(when, [&fired, when] { fired.push_back(when); });
    }
    eq.runAll();
    ASSERT_EQ(fired.size(), 200u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

} // anonymous namespace
} // namespace fsim
