/**
 * @file
 * Unit tests for the per-core run-to-completion scheduler.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "cpu/core.hh"

namespace fsim
{
namespace
{

struct CoreFixture : public ::testing::Test
{
    EventQueue eq;
    CacheModel cache{4, 400};
    CycleCosts costs;
    CpuModel cpu{eq, cache, costs, 4};
};

TEST_F(CoreFixture, TasksRunSeriallyOnOneCore)
{
    std::vector<std::pair<Tick, Tick>> spans;
    for (int i = 0; i < 3; ++i) {
        cpu.post(0, TaskPrio::kProcess, [&spans](Tick start) {
            spans.emplace_back(start, start + 1000);
            return start + 1000;
        });
    }
    eq.runAll();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].first, 0u);
    EXPECT_EQ(spans[1].first, 1000u);
    EXPECT_EQ(spans[2].first, 2000u);
    EXPECT_EQ(cpu.core(0).busyTicks(), 3000u);
    EXPECT_EQ(cpu.core(0).tasksRun(), 3u);
}

TEST_F(CoreFixture, CoresRunInParallel)
{
    std::vector<Tick> starts;
    for (int c = 0; c < 4; ++c) {
        cpu.post(c, TaskPrio::kProcess, [&starts](Tick start) {
            starts.push_back(start);
            return start + 500;
        });
    }
    eq.runAll();
    for (Tick s : starts)
        EXPECT_EQ(s, 0u);
    EXPECT_EQ(cpu.totalBusyTicks(), 2000u);
}

TEST_F(CoreFixture, SoftIrqPreemptsQueuedProcessWork)
{
    std::vector<int> order;
    // Occupy the core so both tasks end up queued.
    cpu.post(0, TaskPrio::kProcess, [](Tick t) { return t + 100; });
    cpu.post(0, TaskPrio::kProcess, [&](Tick t) {
        order.push_back(1);
        return t + 10;
    });
    cpu.post(0, TaskPrio::kSoftIrq, [&](Tick t) {
        order.push_back(0);
        return t + 10;
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_F(CoreFixture, IdleGapsDoNotCountAsBusy)
{
    cpu.post(0, TaskPrio::kProcess, [](Tick t) { return t + 100; });
    eq.runAll();
    eq.schedule(10000, [this] {
        cpu.post(0, TaskPrio::kProcess, [](Tick t) { return t + 100; });
    });
    eq.runAll();
    EXPECT_EQ(cpu.core(0).busyTicks(), 200u);
    // The second task executed at its event time; its cost extends the
    // core's horizon, not the event clock.
    EXPECT_EQ(eq.now(), 10000u);
    EXPECT_EQ(cpu.core(0).busyUntil(), 10100u);
}

TEST_F(CoreFixture, TaskCanPostMoreWork)
{
    int runs = 0;
    std::function<Tick(Tick)> task = [&](Tick t) -> Tick {
        if (++runs < 5)
            cpu.post(0, TaskPrio::kProcess, task);
        return t + 10;
    };
    cpu.post(0, TaskPrio::kProcess, task);
    eq.runAll();
    EXPECT_EQ(runs, 5);
    EXPECT_EQ(cpu.core(0).busyUntil(), 50u);
}

TEST_F(CoreFixture, TaskPostingToItsOwnCoreKeepsItsCapture)
{
    // Tasks run in place in their slab node. A task that posts to its
    // own core while it runs allocates further nodes (here well past
    // one slab chunk); its own closure must stay intact meanwhile and
    // everything it posted must run after it, in order.
    std::array<std::uint64_t, 8> tag{};
    for (std::size_t i = 0; i < tag.size(); ++i)
        tag[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
    std::vector<int> order;
    std::array<std::uint64_t, 8> seen{};
    cpu.post(0, TaskPrio::kProcess, [&, tag](Tick t) {
        order.push_back(-1);
        for (int i = 0; i < 300; ++i)
            cpu.post(0, i % 3 ? TaskPrio::kProcess : TaskPrio::kSoftIrq,
                     [&order, i](Tick t2) {
                         order.push_back(i);
                         return t2 + 1;
                     });
        EXPECT_EQ(cpu.core(0).backlog(), 300u);
        seen = tag;
        return t + 10;
    });
    eq.runAll();
    EXPECT_EQ(seen, tag);
    std::vector<int> want{-1};
    for (int i = 0; i < 300; i += 3)
        want.push_back(i);   // SoftIRQ posts first...
    for (int i = 0; i < 300; ++i)
        if (i % 3)
            want.push_back(i);   // ...then process posts, each FIFO
    EXPECT_EQ(order, want);
    EXPECT_EQ(cpu.core(0).busyUntil(), 310u);
}

TEST_F(CoreFixture, PriorityThenFifoOrderOverRecycledNodes)
{
    // Over 10K tasks, each running task posts 0-2 children of either
    // priority to its own core (a pure function of its id and of the
    // backlog behind it, which hovers near 32), so nodes are freed and
    // reused throughout. The order must match a plain two-deque model
    // of the scheduler: SoftIRQ head first, else the process head;
    // posts append at the tail.
    constexpr std::uint64_t kMaxIds = 12'000;
    auto mix = [](std::uint64_t id) {
        const std::uint64_t h = (id + 1) * 0x9e3779b97f4a7c15ULL;
        return h ^ (h >> 31);
    };
    auto prioOf = [&](std::uint64_t id) {
        return (mix(id) >> 8) % 3 == 0 ? TaskPrio::kSoftIrq
                                       : TaskPrio::kProcess;
    };
    auto childrenOf = [&](std::uint64_t id, std::size_t backlog) {
        return mix(id) % 2 + (backlog < 32 ? 1 : 0);
    };

    std::vector<std::uint64_t> want;
    {
        std::deque<std::uint64_t> q[2];
        std::uint64_t next = 0;
        for (; next < 16; ++next)
            q[static_cast<int>(prioOf(next))].push_back(next);
        while (!q[0].empty() || !q[1].empty()) {
            std::deque<std::uint64_t> &from = q[0].empty() ? q[1] : q[0];
            const std::uint64_t id = from.front();
            from.pop_front();
            want.push_back(id);
            for (std::uint64_t k = childrenOf(id, q[0].size() + q[1].size());
                 k > 0 && next < kMaxIds; --k, ++next)
                q[static_cast<int>(prioOf(next))].push_back(next);
        }
    }
    ASSERT_GE(want.size(), 10'000u);

    std::vector<std::uint64_t> got;
    std::uint64_t next = 0;
    std::function<void(std::uint64_t)> post = [&](std::uint64_t id) {
        cpu.post(0, prioOf(id), [&, id](Tick t) {
            got.push_back(id);
            for (std::uint64_t k = childrenOf(id, cpu.core(0).backlog());
                 k > 0 && next < kMaxIds; --k)
                post(next++);
            return t + 1 + id % 7;
        });
    };
    for (; next < 16;)
        post(next++);
    eq.runAll();
    EXPECT_EQ(got, want);
    EXPECT_EQ(cpu.core(0).tasksRun(), want.size());
}

TEST_F(CoreFixture, BacklogReported)
{
    cpu.post(1, TaskPrio::kProcess, [](Tick t) { return t + 10; });
    cpu.post(1, TaskPrio::kProcess, [](Tick t) { return t + 10; });
    cpu.post(1, TaskPrio::kSoftIrq, [](Tick t) { return t + 10; });
    EXPECT_EQ(cpu.core(1).backlog(), 3u);
    eq.runAll();
    EXPECT_EQ(cpu.core(1).backlog(), 0u);
}

TEST_F(CoreFixture, BacklogCountsTrackEachPriority)
{
    // A running task is off its queue: the counts a task sees are what
    // is still waiting behind it.
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    auto task = [&](Tick t) {
        seen.emplace_back(cpu.core(2).backlog(),
                          cpu.core(2).softirqBacklog());
        return t + 10;
    };
    for (int i = 0; i < 3; ++i)
        cpu.post(2, TaskPrio::kProcess, task);
    for (int i = 0; i < 2; ++i)
        cpu.post(2, TaskPrio::kSoftIrq, task);
    EXPECT_EQ(cpu.core(2).backlog(), 5u);
    EXPECT_EQ(cpu.core(2).softirqBacklog(), 2u);
    EXPECT_EQ(cpu.core(1).backlog(), 0u);
    eq.runAll();
    using P = std::pair<std::size_t, std::size_t>;
    EXPECT_EQ(seen, (std::vector<P>{{4, 1}, {3, 0}, {2, 0}, {1, 0},
                                    {0, 0}}));
    EXPECT_EQ(cpu.core(2).backlog(), 0u);
    EXPECT_EQ(cpu.core(2).softirqBacklog(), 0u);
}

TEST_F(CoreFixture, ImplicitLocalAccessesCharged)
{
    cpu.post(0, TaskPrio::kProcess,
             [](Tick t) { return t + 3000; });
    eq.runAll();
    // 3000 cycles / cyclesPerLocalAccess(300) = 10 implicit accesses.
    EXPECT_EQ(cache.accesses(0), 10u);
}

TEST_F(CoreFixture, ZeroLengthTaskAllowed)
{
    cpu.post(2, TaskPrio::kProcess, [](Tick t) { return t; });
    eq.runAll();
    EXPECT_EQ(cpu.core(2).busyTicks(), 0u);
    EXPECT_EQ(cpu.core(2).tasksRun(), 1u);
}

TEST(CoreDeath, TaskFinishingInThePastPanics)
{
    EventQueue eq;
    CacheModel cache(1, 400);
    CycleCosts costs;
    CpuModel cpu(eq, cache, costs, 1);
    cpu.post(0, TaskPrio::kProcess, [](Tick t) { return t + 100; });
    eq.runAll();
    cpu.post(0, TaskPrio::kProcess, [](Tick) { return Tick{0}; });
    EXPECT_DEATH(eq.runAll(), "finished before");
}

} // anonymous namespace
} // namespace fsim
