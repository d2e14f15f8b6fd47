/**
 * @file
 * Differential property test: the ladder EventQueue vs the frozen
 * binary-heap ReferenceEventQueue.
 *
 * Millions of randomized schedule / scheduleIn / runOne / runUntil
 * operations (seeded by sim/rng so failures replay exactly) are fed to
 * both queues in lockstep. After every operation the two must agree on
 * now(), pending(), executed() and — via per-event execution logs — on
 * the exact dispatch order, including same-tick FIFO ties, events that
 * schedule more events at now(), and runUntil landing exactly on a
 * bucket or ladder boundary. Any divergence prints the op index and
 * seed needed to reproduce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "reference_event_queue.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fsim
{
namespace
{

/** Drives one queue; records each event's id in dispatch order. */
template <typename Queue>
struct Driver
{
    Queue q;
    std::vector<std::uint64_t> log;
    std::uint64_t nextId = 0;

    /**
     * Schedule event @p id at @p when. The handler re-schedules
     * children deterministically from its id: every 5th event spawns a
     * same-tick child (FIFO-at-now coverage) and every 7th a near-
     * future child, so dispatch itself keeps the queues under load.
     */
    void
    scheduleEvent(Tick when, std::uint64_t id)
    {
        q.schedule(when, [this, id] {
            log.push_back(id);
            if (id % 5 == 0) {
                const std::uint64_t child = nextId++;
                q.schedule(q.now(), [this, child] {
                    log.push_back(child);
                });
            }
            if (id % 7 == 0) {
                const std::uint64_t child = nextId++;
                // Saturate at the tick ceiling: a handler can run at
                // (or near) kTickMax, where now + delta would wrap
                // into the past and the two queues' clamp/panic
                // behavior takes over from FIFO order.
                const Tick delta =
                    std::min<Tick>(1 + id % 1000, kTickMax - q.now());
                q.scheduleIn(delta, [this, child] {
                    log.push_back(child);
                });
            }
        });
    }
};

/** Random deltas spanning same-tick to far-future without overflow. */
Tick
randomDelta(Rng &rng, Tick now)
{
    const std::uint64_t shape = rng.next() % 100;
    Tick delta;
    if (shape < 15) {
        delta = 0;   // same tick: FIFO ties
    } else if (shape < 65) {
        delta = rng.next() % 5000;   // near future: bottom regime
    } else if (shape < 90) {
        delta = rng.next() % 5'000'000;   // mid future: rungs
    } else if (shape < 99) {
        delta = rng.next() % 50'000'000'000ULL;   // far future: top
    } else {
        // Extreme sparse future: exercises maximal-span epochs. Bound
        // by the remaining tick space so now + delta cannot wrap.
        delta = rng.next() % ((kTickMax - now) / 2 + 1);
    }
    if (delta > kTickMax - now)
        delta = kTickMax - now;
    return delta;
}

TEST(EventQueueDiff, MillionsOfRandomOpsMatchReferenceHeap)
{
    const std::uint64_t seed = 0xf457'50cc'e7d1'ff01ULL;
    Rng rng(seed);

    Driver<EventQueue> ladder;
    Driver<ReferenceEventQueue> heap;

    constexpr std::uint64_t kOps = 1'200'000;
    std::uint64_t mismatches = 0;

    for (std::uint64_t op = 0; op < kOps && mismatches == 0; ++op) {
        const std::uint64_t kind = rng.next() % 100;
        if (kind < 45) {
            // schedule at an absolute tick
            const Tick when =
                ladder.q.now() + randomDelta(rng, ladder.q.now());
            const std::uint64_t id = ladder.nextId++;
            heap.nextId++;
            ladder.scheduleEvent(when, id);
            heap.scheduleEvent(when, id);
        } else if (kind < 55) {
            // scheduleIn, including delta 0
            const Tick delta = randomDelta(rng, ladder.q.now());
            const std::uint64_t id = ladder.nextId++;
            heap.nextId++;
            ladder.q.scheduleIn(delta, [d = &ladder, id] {
                d->log.push_back(id);
            });
            heap.q.scheduleIn(delta, [d = &heap, id] {
                d->log.push_back(id);
            });
        } else if (kind < 80) {
            ASSERT_EQ(ladder.q.runOne(), heap.q.runOne())
                << "op " << op << " seed " << seed;
        } else {
            // runUntil: sometimes exactly on a pending event's tick
            // (boundary), sometimes between events, sometimes far out.
            Tick limit =
                ladder.q.now() + randomDelta(rng, ladder.q.now());
            ladder.q.runUntil(limit);
            heap.q.runUntil(limit);
        }

        if (ladder.q.now() != heap.q.now() ||
            ladder.q.pending() != heap.q.pending() ||
            ladder.q.executed() != heap.q.executed() ||
            ladder.log != heap.log) {
            ++mismatches;
            ASSERT_EQ(ladder.q.now(), heap.q.now())
                << "op " << op << " seed " << seed;
            ASSERT_EQ(ladder.q.pending(), heap.q.pending())
                << "op " << op << " seed " << seed;
            ASSERT_EQ(ladder.q.executed(), heap.q.executed())
                << "op " << op << " seed " << seed;
            ASSERT_EQ(ladder.log, heap.log)
                << "op " << op << " seed " << seed;
        }
        // Keep the dispatch logs bounded: once both agree, the prefix
        // has served its purpose.
        if (ladder.log.size() > 4096) {
            ladder.log.clear();
            heap.log.clear();
        }
    }

    // Drain both completely and compare the tail.
    ASSERT_EQ(ladder.q.runAll(), heap.q.runAll());
    EXPECT_EQ(ladder.q.now(), heap.q.now());
    EXPECT_EQ(ladder.q.pending(), 0u);
    EXPECT_EQ(ladder.q.executed(), heap.q.executed());
    EXPECT_EQ(ladder.log, heap.log);
    EXPECT_GE(ladder.q.executed(), kOps / 4)
        << "op mix degenerated; the run exercised too few dispatches";
}

/** Boundary sweep: runUntil exactly on, just before and just after
 *  every bucket edge of a laddered batch. */
TEST(EventQueueDiff, RunUntilOnLadderBoundaries)
{
    Rng rng(0xb0cde7);
    Driver<EventQueue> ladder;
    Driver<ReferenceEventQueue> heap;

    // A batch wide enough to force a top spill into a real rung.
    std::vector<Tick> ticks;
    for (int i = 0; i < 3000; ++i) {
        const Tick when = 1000 + rng.next() % 1'000'000;
        const std::uint64_t id = ladder.nextId++;
        heap.nextId++;
        ladder.scheduleEvent(when, id);
        heap.scheduleEvent(when, id);
        ticks.push_back(when);
    }
    std::sort(ticks.begin(), ticks.end());
    for (std::size_t i = 0; i < ticks.size(); i += 97) {
        for (const Tick limit :
             {ticks[i] - 1, ticks[i], ticks[i] + 1}) {
            if (limit < ladder.q.now())
                continue;
            ladder.q.runUntil(limit);
            heap.q.runUntil(limit);
            ASSERT_EQ(ladder.q.now(), heap.q.now()) << "limit " << limit;
            ASSERT_EQ(ladder.q.pending(), heap.q.pending())
                << "limit " << limit;
            ASSERT_EQ(ladder.log, heap.log) << "limit " << limit;
        }
    }
    ladder.q.runAll();
    heap.q.runAll();
    EXPECT_EQ(ladder.log, heap.log);
}

/**
 * The pure-bottom regime in haproxy's shape: a few far-future events
 * (timers) staged in the dispatch bottom with no rung active, then a
 * long stream of near-future schedules interleaved with dispatches.
 * Every near-future event sorts before the far ones, so unbounded the
 * bottom would take each of them as a sorted insert into an ever
 * longer array; bounded, it hands its own nodes to a rung instead.
 * Checked op for op against the heap oracle.
 */
TEST(EventQueueDiff, PureBottomRegimeStaysBoundedAndOrdered)
{
    Rng rng(0x4a9e0b);
    Driver<EventQueue> ladder;
    Driver<ReferenceEventQueue> heap;
    auto scheduleBoth = [&](Tick when) {
        const std::uint64_t id = ladder.nextId++;
        heap.nextId++;
        ladder.scheduleEvent(when, id);
        heap.scheduleEvent(when, id);
    };

    for (int i = 0; i < 4; ++i)
        scheduleBoth(50'000'000'000ULL + rng.next() % 1'000'000);

    // ~1000 live near-future events: far more than the bound.
    constexpr std::size_t kLive = 1000;
    constexpr std::uint64_t kOps = 300'000;
    for (std::uint64_t op = 0; op < kOps; ++op) {
        scheduleBoth(ladder.q.now() + 1 + rng.next() % 20'000);
        while (ladder.q.pending() > kLive)
            ASSERT_EQ(ladder.q.runOne(), heap.q.runOne()) << "op " << op;
        ASSERT_EQ(ladder.q.now(), heap.q.now()) << "op " << op;
        ASSERT_EQ(ladder.q.pending(), heap.q.pending()) << "op " << op;
        ASSERT_EQ(ladder.q.executed(), heap.q.executed()) << "op " << op;
        ASSERT_EQ(ladder.log, heap.log) << "op " << op;
        if (ladder.log.size() > 1024) {
            ladder.log.clear();
            heap.log.clear();
        }
    }
    EXPECT_GE(ladder.q.executed(), kOps / 2);
    EXPECT_LE(ladder.q.peakBottom(), EventQueue::kBottomMax);

    ASSERT_EQ(ladder.q.runAll(), heap.q.runAll());
    EXPECT_EQ(ladder.q.now(), heap.q.now());
    EXPECT_EQ(ladder.log, heap.log);
}

/** Laddering the bottom of a fresh queue (no epoch open yet) must send
 *  later schedules past the new rung behind it, not back into the
 *  emptied bottom ahead of it. */
TEST(EventQueueDiff, LadderedBottomKeepsLaterSchedulesBehindIt)
{
    Rng rng(0x1adde7);
    Driver<EventQueue> ladder;
    Driver<ReferenceEventQueue> heap;
    auto scheduleBoth = [&](Tick when) {
        const std::uint64_t id = ladder.nextId++;
        heap.nextId++;
        ladder.scheduleEvent(when, id);
        heap.scheduleEvent(when, id);
    };
    for (std::size_t i = 0; i <= EventQueue::kBottomMax; ++i)
        scheduleBoth(rng.next() % 10'000);
    // Past the rung, then inside it, then before it.
    scheduleBoth(1'000'000);
    scheduleBoth(5'000);
    scheduleBoth(0);
    ASSERT_EQ(ladder.q.runAll(), heap.q.runAll());
    EXPECT_EQ(ladder.log, heap.log);
    EXPECT_LE(ladder.q.peakBottom(), EventQueue::kBottomMax);
}

} // namespace
} // namespace fsim
