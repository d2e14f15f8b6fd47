/**
 * @file
 * Allocation audit: the event/packet/timer hot path must not touch the
 * heap in steady state.
 *
 * This binary includes the counting allocator hook (alloc_hook.hh), so
 * every allocation made while an AllocAuditScope is armed is counted
 * (the counters live in sim/alloc_audit). Three layers of contract:
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
 *     event nodes and ring capacity instead of allocating. The one
 *     growth allowed is the client's latency log, which keeps every
 *     sample of the run in 64 KiB chunks; it counts its own heap
 *     blocks and the audit must equal that count exactly.
 *
 *  3. A fleet (balancers + machines) obeys the same contract untraced.
 *     Traced, span recording recycles its live slots and stitches at
 *     close, so the only growth left is the per-request trace record
 *     log: chunked, well under one heap block per 1000 connections.
 */

#include <gtest/gtest.h>

#include "app/http_load.hh"
#include "fleet/fleet.hh"
#include "harness/experiment.hh"
#include "sim/alloc_audit.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"

#include "alloc_hook.hh"

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
    if (audited) dumpAllocHistogram("event queue");
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
    if (audited) dumpAllocHistogram("timer wheel");
    EXPECT_EQ(audited, 0u)
        << "timer arm/mod/fire hit the allocator in steady state";
}

/** What an audited steady-state window cost: heap blocks allocated, how
 *  many of them the client's latency log made, and connections
 *  completed meanwhile. */
struct AuditWindow
{
    std::uint64_t blocks = 0;
    std::uint64_t latencyLogBlocks = 0;
    std::uint64_t conns = 0;
};

/** Run @p bed on to @p until with the audit armed. */
template <typename Bed>
AuditWindow
auditWindow(Bed &bed, Tick until)
{
    const HttpLoad &load = bed.load();
    const std::uint64_t conns = load.completed();
    const std::uint64_t logBlocks = load.latencySamples().allocations();
    AuditWindow w;
    {
        AllocAuditScope scope;
        bed.runUntilChecked(until);
        w.blocks = AllocAudit::disarm();
    }
    w.latencyLogBlocks = load.latencySamples().allocations() - logBlocks;
    w.conns = load.completed() - conns;
    return w;
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

    const AuditWindow w = auditWindow(bed, ticksFromSeconds(0.5));
    // The window must have done real work (thousands of connections)...
    EXPECT_GT(w.conns, 500u);
    // ...without a heap allocation beyond the latency log's chunks:
    // every per-connection object on the packet/timer/event path is
    // recycled.
    if (w.blocks != w.latencyLogBlocks) dumpAllocHistogram("nginx");
    EXPECT_EQ(w.blocks, w.latencyLogBlocks)
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

/** A warmed-up fleet's audited 0.5 s window. */
AuditWindow
auditFleetWindow(bool traced)
{
    FleetTestbed bed(auditFleet(traced));
    bed.startLoad();
    // Warm-up covers several timer-wheel revolutions: the SYN_RCVD
    // reaper the fleet always arms puts every SYN on the wheel, so tv1
    // slots need a few passes to reach their high-water capacity.
    bed.runUntilChecked(ticksFromSeconds(1.5));
    return auditWindow(bed, ticksFromSeconds(2.0));
}

TEST(AllocAudit, NotraceFleetSteadyStateIsAllocationFree)
{
    const AuditWindow w = auditFleetWindow(/*traced=*/false);
    EXPECT_GT(w.conns, 5000u);
    if (w.blocks != w.latencyLogBlocks) dumpAllocHistogram("fleet notrace");
    EXPECT_EQ(w.blocks, w.latencyLogBlocks)
        << "steady-state untraced fleet allocated on the hot path";
}

TEST(AllocAudit, TracedFleetAllocatesUnderOneBlockPer1000Conns)
{
    const AuditWindow w = auditFleetWindow(/*traced=*/true);
    EXPECT_GT(w.conns, 5000u);
    if (w.blocks * 1000 >= w.conns) dumpAllocHistogram("fleet traced");
    EXPECT_LT(w.blocks * 1000, w.conns)
        << w.blocks << " heap blocks for " << w.conns
        << " connections: span recording or stitching is allocating "
           "per connection";
}

} // namespace
} // namespace fsim
