/**
 * @file
 * Allocation audit: the event/packet/timer hot path must not touch the
 * heap in steady state.
 *
 * This binary overrides global operator new/delete to count every
 * allocation while an AllocAuditScope is armed (the counters live in
 * sim/alloc_audit). Two layers of contract:
 *
 *  1. The raw simulator substrate — EventQueue scheduling/dispatch,
 *     TimerWheel arm/mod/cancel/fire, CpuModel task posting — must make
 *     ZERO allocations once its slabs and rings are warm. This is the
 *     inline-capture budget (EventFn 56 B, Task 88 B, timer callbacks
 *     32/64 B) plus slab recycling doing their job.
 *
 *  2. A steady-state --notrace nginx experiment (full kernel + app +
 *     load) must likewise run allocation-free between checkpoints once
 *     warmed up: connection churn recycles TCB slabs, timer nodes,
 *     event nodes and ring capacity instead of allocating.
 *
 *  3. A fleet (balancers + machines) obeys the same contract untraced.
 *     Traced, span recording recycles its live slots and stitches at
 *     close, so the only growth left is the per-request trace record
 *     log: chunked, well under one heap block per 1000 connections.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "fleet/fleet.hh"
#include "harness/experiment.hh"
#include "sim/alloc_audit.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"

// ---------------------------------------------------------------------
// Global counting allocator hook. Forwarding to malloc keeps ASan's
// interception intact (it wraps malloc), so the audit composes with the
// sanitizer jobs.
// ---------------------------------------------------------------------

namespace
{

// Failure diagnostic: histogram of audited allocation sizes, dumped
// only when a test is about to fail. Sizes identify structures (8 B =
// a pointer vector's first growth, 2^n = vector doubling, etc.).
constexpr std::size_t kHistCap = 512;
std::size_t g_histSize[kHistCap];
std::uint64_t g_histCount[kHistCap];
std::size_t g_histUsed = 0;

void
recordSize(std::size_t n)
{
    for (std::size_t i = 0; i < g_histUsed; ++i)
        if (g_histSize[i] == n) { ++g_histCount[i]; return; }
    if (g_histUsed < kHistCap) {
        g_histSize[g_histUsed] = n;
        g_histCount[g_histUsed] = 1;
        ++g_histUsed;
    }
}

void
dumpHist(const char *tag)
{
    fprintf(stderr, "=== alloc histogram (%s) ===\n", tag);
    for (std::size_t i = 0; i < g_histUsed; ++i)
        fprintf(stderr, "  size %zu x %llu\n", g_histSize[i],
                (unsigned long long)g_histCount[i]);
    g_histUsed = 0;
}

void *
auditedAlloc(std::size_t n)
{
    fsim::AllocAudit::noteHooked();
    if (fsim::AllocAudit::armed())
        recordSize(n);
    fsim::AllocAudit::noteAlloc(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return auditedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return auditedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

namespace fsim
{
namespace
{

TEST(AllocAudit, HookIsLive)
{
    AllocAuditScope scope;
    delete new int(7);
    ASSERT_TRUE(AllocAudit::hooked());
    EXPECT_GE(AllocAudit::allocs(), 1u);
    EXPECT_GE(AllocAudit::frees(), 1u);
}

TEST(AllocAudit, EventQueueSteadyStateIsAllocationFree)
{
    EventQueue eq;
    Rng rng(42);
    // Warm the slab and ladder: pending population comparable to the
    // steady state we then audit.
    int live = 0;
    for (int i = 0; i < 20000; ++i) {
        eq.schedule(eq.now() + rng.range(500'000),
                    [&live] { --live; });
        ++live;
        if (i % 3 == 0)
            eq.runOne();
    }
    // Unaudited steady-churn phase: identical op mix to the audited
    // loop below, long enough for every rung/bucket vector the churn
    // can touch to reach its sticky high-water capacity. Rung depth
    // and staged-bottom width are max-of-draws statistics, so (like
    // the timer-wheel test below) the warm phase runs several times
    // longer than the audited one to discover the rare deep cases.
    for (int i = 0; i < 800'000; ++i) {
        eq.schedule(eq.now() + 1 + rng.range(500'000), [&live] {
            --live;
        });
        ++live;
        eq.runOne();
    }
    // Audit: schedule/dispatch churn at constant population.
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (int i = 0; i < 200'000; ++i) {
            eq.schedule(eq.now() + 1 + rng.range(500'000), [&live] {
                --live;
            });
            ++live;
            eq.runOne();
        }
        audited = AllocAudit::disarm();
    }
    if (audited) dumpHist("event queue");
    EXPECT_EQ(audited, 0u)
        << "event schedule/dispatch hit the allocator in steady state";
    eq.runAll();
    EXPECT_EQ(live, 0);
}

TEST(AllocAudit, TimerWheelSteadyStateIsAllocationFree)
{
    TimerWheel tw;
    Rng rng(7);
    int fired = 0;
    std::vector<TimerWheel::TimerId> ids;
    ids.reserve(4096);
    for (int i = 0; i < 4096; ++i)
        ids.push_back(
            tw.add(1 + rng.range(5000), [&fired] { ++fired; }));
    tw.advance(2500);   // half the population fires; slab has churn
    // Unaudited steady-churn phase: same op mix as the audited loop,
    // so every wheel slot the churn's horizon band can reach grows to
    // its sticky high-water capacity first. Slot occupancy peaks are a
    // max-of-draws statistic, so the warm phase runs several times
    // longer than the audited one to discover them all.
    for (int i = 0; i < 600'000; ++i) {
        TimerWheel::TimerId &id = ids[rng.range(ids.size())];
        if (!tw.modify(id, tw.currentJiffy() + 1 + rng.range(5000)))
            id = tw.add(tw.currentJiffy() + 1 + rng.range(5000),
                        [&fired] { ++fired; });
        if (i % 16 == 0)
            tw.advance(tw.currentJiffy() + 1);
    }
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (int i = 0; i < 100'000; ++i) {
            // mod/cancel/re-add churn, like keepalive timers under
            // per-segment mod_timer load.
            TimerWheel::TimerId &id = ids[rng.range(ids.size())];
            if (!tw.modify(id, tw.currentJiffy() + 1 + rng.range(5000)))
                id = tw.add(tw.currentJiffy() + 1 + rng.range(5000),
                            [&fired] { ++fired; });
            if (i % 16 == 0)
                tw.advance(tw.currentJiffy() + 1);
        }
        audited = AllocAudit::disarm();
    }
    if (audited) dumpHist("timer wheel");
    EXPECT_EQ(audited, 0u)
        << "timer arm/mod/fire hit the allocator in steady state";
}

TEST(AllocAudit, NotraceNginxSteadyStateIsAllocationFree)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.seed = 1234;
    cfg.machine.traceEnabled = false;   // the --notrace contract
    cfg.checkLevel = CheckLevel::kOff;
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.0;
    cfg.concurrencyPerCore = 50;

    Testbed bed(cfg);
    bed.startLoad();
    // Warm up well past connection churn onset: slabs, rings, table
    // capacity and ladder epochs all reach their high-water marks.
    // 0.3 s covers a full tv1 timer-wheel revolution (256 jiffies) and
    // many TIME_WAIT periods (20 jiffies), so every sticky capacity
    // the steady state can touch has been discovered.
    bed.runUntilChecked(ticksFromSeconds(0.3));

    const std::uint64_t servedBefore = bed.load().completed();
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        bed.runUntilChecked(ticksFromSeconds(0.5));
        audited = AllocAudit::disarm();
    }
    // The window must have done real work (thousands of connections)...
    EXPECT_GT(bed.load().completed(), servedBefore + 500u);
    // ...without a single heap allocation: every per-connection object
    // on the packet/timer/event path is recycled.
    if (audited) dumpHist("nginx");
    EXPECT_EQ(audited, 0u)
        << "steady-state nginx allocated on the hot path; see "
           "sim/event_fn.hh capture budgets and the slab free lists";
}

FleetConfig
auditFleet(bool traced)
{
    FleetConfig fc;
    fc.serverMachines = 2;
    fc.balancers = 2;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 2;
    fc.base.machine.seed = 1234;
    fc.base.machine.traceEnabled = traced;
    fc.base.checkLevel = CheckLevel::kOff;
    fc.base.concurrencyPerCore = 10;
    return fc;
}

/** Heap blocks a warmed-up fleet allocates over a 0.5 s window, and the
 *  connections it completed meanwhile. */
std::pair<std::uint64_t, std::uint64_t>
auditFleetWindow(bool traced)
{
    FleetTestbed bed(auditFleet(traced));
    bed.startLoad();
    // Warm-up covers several timer-wheel revolutions: the SYN_RCVD
    // reaper the fleet always arms puts every SYN on the wheel, so tv1
    // slots need a few passes to reach their high-water capacity. The
    // client's latency log grows by doubling; this window lies between
    // its 64 Ki and 128 Ki sample steps.
    bed.runUntilChecked(ticksFromSeconds(1.5));
    const std::uint64_t before = bed.load().completed();
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        bed.runUntilChecked(ticksFromSeconds(2.0));
        audited = AllocAudit::disarm();
    }
    return {audited, bed.load().completed() - before};
}

TEST(AllocAudit, NotraceFleetSteadyStateIsAllocationFree)
{
    const auto [audited, conns] = auditFleetWindow(/*traced=*/false);
    EXPECT_GT(conns, 5000u);
    if (audited) dumpHist("fleet notrace");
    EXPECT_EQ(audited, 0u)
        << "steady-state untraced fleet allocated on the hot path";
}

TEST(AllocAudit, TracedFleetAllocatesUnderOneBlockPer1000Conns)
{
    const auto [audited, conns] = auditFleetWindow(/*traced=*/true);
    EXPECT_GT(conns, 5000u);
    if (audited * 1000 >= conns) dumpHist("fleet traced");
    EXPECT_LT(audited * 1000, conns)
        << audited << " heap blocks for " << conns
        << " connections: span recording or stitching is allocating "
           "per connection";
}

} // namespace
} // namespace fsim
