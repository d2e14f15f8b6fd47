/**
 * @file
 * Allocation audit: the event/packet/timer hot path must not touch the
 * heap in steady state.
 *
 * This binary includes the counting allocator hook (alloc_hook.hh), so
 * every allocation made while an AllocAuditScope is armed is counted
 * (the counters live in sim/alloc_audit). Four layers of contract:
 *
 *  1. The raw simulator substrate — EventQueue scheduling/dispatch,
 *     TimerWheel arm/mod/cancel/fire, CpuModel task posting — must make
 *     ZERO allocations once its slabs and rings are warm. This is the
 *     inline-capture budget (EventFn 56 B, Task 96 B, timer callbacks
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
 *     A --notrace haproxy experiment, which adds the active-open path
 *     (proxy sessions, connect(), ephemeral ports), obeys the same
 *     contract.
 *
 *  3. A fleet (balancers + machines) obeys the same contract untraced.
 *     Traced, span recording recycles its live slots and stitches at
 *     close, so the only growth left is the per-request trace record
 *     log: chunked, well under one heap block per 1000 connections,
 *     and at most 16 B per record beyond the record itself.
 *
 *  4. collect() allocates a fixed amount, not an amount per trace or
 *     per latency sample: fleet forensics and window percentiles select
 *     in place.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "app/http_load.hh"
#include "cpu/core.hh"
#include "fleet/fleet.hh"
#include "harness/experiment.hh"
#include "kernel/timer_base.hh"
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

TEST(AllocAudit, CpuModelSteadyStateIsAllocationFree)
{
    EventQueue eq;
    CacheModel cache(4, 400);
    CycleCosts costs;
    CpuModel cpu(eq, cache, costs, 4);
    Rng rng(11);
    std::uint64_t ran = 0;
    // Bursts of posts across cores and both priorities; a quarter of
    // the tasks post a child to their own core while they run, so nodes
    // are allocated mid-task as well as from outside. Each task carries
    // a packet-sized capture, like the kernel's steering closures.
    struct Payload
    {
        std::uint64_t words[8] = {};
    };
    auto burst = [&] {
        const int n = 1 + static_cast<int>(rng.range(64));
        for (int i = 0; i < n; ++i) {
            const CoreId c = static_cast<CoreId>(rng.range(4));
            const TaskPrio prio = rng.range(2) ? TaskPrio::kSoftIrq
                                               : TaskPrio::kProcess;
            Payload p;
            p.words[0] = rng.next();
            cpu.post(c, prio, [&cpu, &ran, c, p](Tick t) {
                ++ran;
                if (p.words[0] % 4 == 0)
                    cpu.post(c, TaskPrio::kProcess, [&ran](Tick t2) {
                        ++ran;
                        return t2 + 50;
                    });
                return t + 100 + p.words[0] % 1000;
            });
        }
        eq.runAll();
    };
    // Unaudited warm phase with the same op mix: the slab reaches the
    // deepest backlog the bursts can build.
    for (int i = 0; i < 20'000; ++i)
        burst();
    const std::uint64_t warm = ran;
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (int i = 0; i < 5'000; ++i)
            burst();
        audited = AllocAudit::disarm();
    }
    if (audited) dumpAllocHistogram("cpu model");
    EXPECT_GT(ran - warm, 100'000u);
    EXPECT_EQ(audited, 0u)
        << "task post/run hit the allocator in steady state";
    EXPECT_EQ(cpu.core(0).backlog() + cpu.core(1).backlog() +
                  cpu.core(2).backlog() + cpu.core(3).backlog(),
              0u);
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
    // so the node slab reaches the live-timer high-water mark first.
    // Slots own no storage, so nothing else has a capacity to grow.
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

TEST(AllocAudit, TwentyFourTimerBasesOwnNoSlotStorage)
{
    // A wheel's slots are index-list heads inside the wheel object, so a
    // 24-core machine's timer bases hold no heap storage until a timer
    // is armed: the only block is the array holding them.
    using Bases = std::array<TimerBase, 24>;
    std::uint64_t blocks;
    std::uint64_t bytes;
    {
        AllocAuditScope scope;
        auto bases = std::make_unique<Bases>();
        bytes = AllocAudit::allocBytes();
        blocks = AllocAudit::disarm();
    }
    if (blocks != 1) dumpAllocHistogram("timer bases");
    EXPECT_EQ(blocks, 1u);
    EXPECT_EQ(bytes, sizeof(Bases));
}

/** What an audited steady-state window cost: heap blocks allocated, how
 *  many of them the client's latency log made, and connections
 *  completed meanwhile. */
struct AuditWindow
{
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
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
        w.bytes = AllocAudit::allocBytes();
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

TEST(AllocAudit, NotraceHaproxySteadyStateIsAllocationFree)
{
    // The active-open path on top of the nginx audit: proxy sessions,
    // connect() and ephemeral ports, two connections per request.
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.backendCount = 4;
    cfg.machine.cores = 2;
    cfg.machine.seed = 1234;
    cfg.machine.traceEnabled = false;
    cfg.checkLevel = CheckLevel::kOff;
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.0;
    cfg.concurrencyPerCore = 50;

    Testbed bed(cfg);
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.3));

    const AuditWindow w = auditWindow(bed, ticksFromSeconds(0.5));
    EXPECT_GT(w.conns, 500u);
    if (w.blocks != w.latencyLogBlocks) dumpAllocHistogram("haproxy");
    EXPECT_EQ(w.blocks, w.latencyLogBlocks)
        << "steady-state haproxy allocated on the hot path; see the "
           "proxy session slab and the kernel's connect-path maps";
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

/** A warmed-up fleet's audited 0.5 s window, and the trace records
 *  appended during it. */
AuditWindow
auditFleetWindow(bool traced, std::uint64_t *records = nullptr)
{
    FleetTestbed bed(auditFleet(traced));
    bed.startLoad();
    // Warm-up covers several timer-wheel revolutions: the SYN_RCVD
    // reaper the fleet always arms puts every SYN on the wheel, so the
    // timer node slabs reach their high-water marks only after a few
    // passes.
    bed.runUntilChecked(ticksFromSeconds(1.5));
    const std::size_t before = bed.traceLog().records().size();
    const AuditWindow w = auditWindow(bed, ticksFromSeconds(2.0));
    if (records)
        *records = bed.traceLog().records().size() - before;
    return w;
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
    std::uint64_t records = 0;
    const AuditWindow w = auditFleetWindow(/*traced=*/true, &records);
    EXPECT_GT(w.conns, 5000u);
    if (w.blocks * 1000 >= w.conns) dumpAllocHistogram("fleet traced");
    EXPECT_LT(w.blocks * 1000, w.conns)
        << w.blocks << " heap blocks for " << w.conns
        << " connections: span recording or stitching is allocating "
           "per connection";
    // Bytes, not just blocks: each request's trace record plus at most
    // 16 B of index and latency-log growth.
    ASSERT_GT(records, 5000u);
    EXPECT_LE(w.bytes, records * (sizeof(FleetTrace) + 16))
        << w.bytes << " bytes for " << records << " trace records";
}

TEST(AllocAudit, TracedFleetCollectAllocatesUnder32KiB)
{
    // Forensics selects its percentiles and exemplars in place over the
    // trace records (sim/order_stat.hh): no pointer array, no tick
    // buffer, and no gather of tied traces, since ties are settled by
    // selecting on clientStart, then traceId. What collect() allocates
    // is its result (lock and phase maps, hop rows, time series) and
    // the in-flight span snapshot, none of it per completed trace:
    // ~15.8 KB here, for ~73K traces.
    FleetTestbed bed(auditFleet(/*traced=*/true));
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.5));
    bed.markWindows();
    bed.runUntilChecked(ticksFromSeconds(1.5));
    std::uint64_t bytes;
    ExperimentResult r;
    {
        AllocAuditScope scope;
        r = bed.collect();
        bytes = AllocAudit::allocBytes();
    }
    const std::uint64_t traces = r.fleetTrace.tracesCompleted;
    ASSERT_GT(traces, 10000u);
    if (bytes > 32 * 1024) dumpAllocHistogram("fleet collect");
    EXPECT_LE(bytes, 32u * 1024)
        << bytes << " bytes for " << traces << " completed traces";
}

/** Bytes one collect() allocates after a @p window_sec window of an
 *  untraced 2-core nginx machine. */
std::uint64_t
singleMachineCollectBytes(double window_sec)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.seed = 1234;
    cfg.machine.traceEnabled = false;
    cfg.checkLevel = CheckLevel::kOff;
    cfg.concurrencyPerCore = 50;
    Testbed bed(cfg);
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.1));
    bed.markWindows();
    bed.runUntilChecked(ticksFromSeconds(0.1 + window_sec));
    AllocAuditScope scope;
    bed.collect();
    return AllocAudit::allocBytes();
}

TEST(AllocAudit, SingleMachineCollectDoesNotGrowWithTheWindow)
{
    // The window's latency percentiles read the sample log in place, so
    // a window 4x longer (4x the samples) costs collect() no more heap.
    // (Traced, the span forensics still builds per-trace vectors at
    // collect; folding traces at close is ROADMAP item 7.)
    const std::uint64_t shortWin = singleMachineCollectBytes(0.05);
    const std::uint64_t longWin = singleMachineCollectBytes(0.2);
    EXPECT_LE(longWin, shortWin)
        << "collect() allocated " << shortWin << " bytes after a 0.05 s "
        << "window and " << longWin << " after a 0.2 s one";
}

} // namespace
} // namespace fsim
