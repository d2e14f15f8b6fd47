/**
 * @file
 * Tests for the trace subsystem: ring overflow semantics and lazy ring
 * storage (this binary includes the counting allocator hook), phase
 * attribution arithmetic, the cycle-conservation invariant against the
 * CPU model, and the bench JSON block-presence rules.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "harness/bench_json.hh"
#include "harness/experiment.hh"
#include "sim/alloc_audit.hh"
#include "trace/phase_accounting.hh"
#include "trace/trace_report.hh"
#include "trace/trace_ring.hh"
#include "trace/trace_scope.hh"
#include "trace/tracer.hh"

#include "alloc_hook.hh"

namespace fsim
{
namespace
{

TraceEvent
ev(Tick tick, TraceEventType type = TraceEventType::kSyscallEnter)
{
    TraceEvent e;
    e.tick = tick;
    e.type = type;
    return e;
}

TEST(TraceRing, FillsBelowCapacityInOrder)
{
    TraceRing ring(8);
    for (Tick t = 0; t < 3; ++t)
        ring.push(ev(t));
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pushed(), 3u);
    EXPECT_EQ(ring.overwritten(), 0u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).tick, static_cast<Tick>(i));
}

TEST(TraceRing, OverwritesOldestWhenFull)
{
    TraceRing ring(4);
    for (Tick t = 0; t < 10; ++t)
        ring.push(ev(t));
    // ftrace overwrite mode: the newest window survives.
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.overwritten(), 6u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).tick, static_cast<Tick>(6 + i));

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.overwritten(), 0u);
}

TEST(TraceRing, AllocatesStorageOnFirstPushOnly)
{
    TraceRing ring(64);
    EXPECT_EQ(ring.capacity(), 64u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.pushed(), 0u);
    EXPECT_EQ(ring.overwritten(), 0u);
    EXPECT_EQ(ring.storageBytes(), 0u);

    std::uint64_t first;
    {
        AllocAuditScope scope;
        ring.push(ev(0));
        first = AllocAudit::disarm();
    }
    ASSERT_TRUE(AllocAudit::hooked());
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(ring.storageBytes(), 64 * sizeof(TraceEvent));

    std::uint64_t rest;
    {
        AllocAuditScope scope;
        for (Tick t = 1; t < 200; ++t)
            ring.push(ev(t));
        ring.clear();
        ring.push(ev(7));
        rest = AllocAudit::disarm();
    }
    EXPECT_EQ(rest, 0u);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.at(0).tick, 7u);
}

/** Run a small nginx testbed briefly and check every core's ring: full
 *  storage when traced, none (with the counters at zero) when not. */
void
expectRingStorage(bool traced)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.traceEnabled = traced;
    cfg.concurrencyPerCore = 20;
    Testbed bed(cfg);
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.02));
    ASSERT_GT(bed.load().completed(), 0u);

    const Tracer &tr = bed.machine().tracer();
    ASSERT_EQ(tr.numCores(), 2);
    for (int c = 0; c < tr.numCores(); ++c) {
        const TraceRing &r = tr.ring(c);
        EXPECT_EQ(r.capacity(), Tracer::kDefaultRingCapacity);
        if (traced) {
            EXPECT_GT(r.pushed(), 0u);
            EXPECT_EQ(r.storageBytes(),
                      Tracer::kDefaultRingCapacity * sizeof(TraceEvent));
        } else {
            EXPECT_EQ(r.size(), 0u);
            EXPECT_EQ(r.pushed(), 0u);
            EXPECT_EQ(r.overwritten(), 0u);
            EXPECT_EQ(r.storageBytes(), 0u);
        }
    }
}

TEST(TraceRing, UntracedTestbedHoldsNoRingStorage)
{
    expectRingStorage(/*traced=*/false);
}

TEST(TraceRing, TracedTestbedAllocatesEveryBusyRing)
{
    expectRingStorage(/*traced=*/true);
}

/** Folded map keyed by decoded stack string, for readable asserts. */
std::map<std::string, std::uint64_t>
decodedFolded(const PhaseSnapshot &s)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &kv : s.folded)
        out[decodeFoldedKey(kv.first)] += kv.second;
    return out;
}

TEST(PhaseAccounting, NestedFramesAndChargesSumToSpan)
{
    PhaseAccounting pa(1);
    pa.push(0, Phase::kApp, 0);
    pa.charge(0, Phase::kLockSpin, 10);
    pa.push(0, Phase::kSyscall, 100);
    pa.charge(0, Phase::kCacheStall, 5);
    pa.pop(0, 150);   // syscall frame: span 50, self 45
    pa.pop(0, 200);   // app frame: span 200, children 10 + 50, self 140
    EXPECT_EQ(pa.depth(0), 0);

    PhaseSnapshot s = pa.snapshot();
    auto &c = s.perCore.at(0);
    EXPECT_EQ(c[static_cast<int>(Phase::kApp)], 140u);
    EXPECT_EQ(c[static_cast<int>(Phase::kSyscall)], 45u);
    EXPECT_EQ(c[static_cast<int>(Phase::kLockSpin)], 10u);
    EXPECT_EQ(c[static_cast<int>(Phase::kCacheStall)], 5u);

    // Attribution is conservative: charges partition the outer span.
    std::uint64_t sum = 0;
    for (int p = 0; p < kNumChargedPhases; ++p)
        sum += c[p];
    EXPECT_EQ(sum, 200u);

    auto folded = decodedFolded(s);
    EXPECT_EQ(folded["app"], 140u);
    EXPECT_EQ(folded["app;lock-spin"], 10u);
    EXPECT_EQ(folded["app;syscall"], 45u);
    EXPECT_EQ(folded["app;syscall;cache-stall"], 5u);
    EXPECT_EQ(s.untracked, 0u);
}

TEST(PhaseAccounting, ChargeOutsideAnyFrameIsUntracked)
{
    PhaseAccounting pa(2);
    pa.charge(1, Phase::kLockSpin, 42);
    PhaseSnapshot s = pa.snapshot();
    EXPECT_EQ(s.untracked, 42u);
    for (const auto &core : s.perCore)
        for (std::uint64_t v : core)
            EXPECT_EQ(v, 0u);
    EXPECT_TRUE(s.folded.empty());
}

TEST(PhaseAccounting, DeltaSubtractsAndSaturates)
{
    PhaseAccounting pa(1);
    pa.push(0, Phase::kApp, 0);
    pa.pop(0, 100);
    PhaseSnapshot before = pa.snapshot();
    pa.push(0, Phase::kApp, 100);
    pa.charge(0, Phase::kLockSpin, 30);
    pa.pop(0, 200);
    PhaseSnapshot d = phaseDelta(before, pa.snapshot());
    EXPECT_EQ(d.perCore[0][static_cast<int>(Phase::kApp)], 70u);
    EXPECT_EQ(d.perCore[0][static_cast<int>(Phase::kLockSpin)], 30u);
    // Window totals: exactly the 100 ticks of the second frame.
    EXPECT_EQ(decodedFolded(d)["app"], 70u);
}

TEST(TraceScope, UnclosedScopeAttributesZeroSelfTime)
{
    Tracer tr(1, 16);
    {
        TraceScope outer(&tr, 0, Phase::kApp, 0);
        {
            TraceScope sc(&tr, 0, Phase::kSyscall, 10);
            tr.chargePhase(0, Phase::kLockSpin, 7);
            // No close(): an early-return path. The destructor pops
            // with zero self time but keeps the nested charge.
        }
        outer.close(100);
    }
    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kSyscall)], 0u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kLockSpin)], 7u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kApp)], 93u);
    EXPECT_EQ(tr.phases().depth(0), 0);
}

TEST(Tracer, NoteLockSpinEmitsEventPairAndCharges)
{
    Tracer tr(1, 16);
    tr.pushPhase(0, Phase::kSoftirq, 0);
    tr.noteLockSpin(0, 50, 25, 3);
    tr.noteLockSpin(0, 80, 0, 3);   // zero spin: no events, no charge
    tr.popPhase(0, 200);

    const TraceRing &ring = tr.ring(0);
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.at(0).type, TraceEventType::kLockSpinBegin);
    EXPECT_EQ(ring.at(0).tick, 50u);
    EXPECT_EQ(ring.at(0).arg, 25u);
    EXPECT_EQ(ring.at(0).id, 3u);
    EXPECT_EQ(ring.at(1).type, TraceEventType::kLockSpinEnd);
    EXPECT_EQ(ring.at(1).tick, 75u);

    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kLockSpin)], 25u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kSoftirq)], 175u);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tr(2, 16);
    tr.setEnabled(false);
    tr.emit(0, TraceEventType::kConnEstablished, 10);
    tr.pushPhase(1, Phase::kApp, 0);
    tr.chargePhase(1, Phase::kLockSpin, 5);
    tr.noteLockSpin(1, 10, 9, 0);
    tr.popPhase(1, 100);
    EXPECT_EQ(tr.eventsRecorded(), 0u);
    PhaseSnapshot s = tr.phaseSnapshot();
    for (const auto &core : s.perCore)
        for (std::uint64_t v : core)
            EXPECT_EQ(v, 0u);
    EXPECT_EQ(s.untracked, 0u);
}

/** Small-but-real experiment config used by the integration tests. */
ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.machine.cores = 4;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.01;
    return cfg;
}

TEST(PhaseAttribution, ChargedCyclesEqualMeasuredBusyTicks)
{
    // The conservation invariant: every busy cycle the CPU model
    // measures is attributed to exactly one phase, because runNext
    // wraps every task in a root frame and nested charges are contained
    // in their enclosing frame's span.
    Testbed bed(smallConfig());
    bed.run();

    Machine &m = bed.machine();
    PhaseSnapshot s = m.tracer().phaseSnapshot();
    std::uint64_t attributed = 0;
    for (const auto &core : s.perCore)
        for (std::uint64_t v : core)
            attributed += v;
    EXPECT_EQ(attributed, m.cpu().totalBusyTicks());
    for (int c = 0; c < m.tracer().numCores(); ++c)
        EXPECT_EQ(m.tracer().phases().depth(c), 0);
}

TEST(PhaseAttribution, BreakdownFractionsSumToOne)
{
    Testbed bed(smallConfig());
    ExperimentResult r = bed.run();
    ASSERT_EQ(static_cast<int>(r.phases.fractions.size()), 4);
    for (const auto &core : r.phases.fractions) {
        double sum = 0;
        for (double f : core) {
            EXPECT_GE(f, 0.0);
            sum += f;
        }
        EXPECT_NEAR(sum, 1.0, 1e-6);
    }
    // A loaded run attributes real work, not just idle.
    EXPECT_GT(r.phases.total(Phase::kApp), 0.0);
    EXPECT_GT(r.phases.total(Phase::kSyscall), 0.0);
    EXPECT_GT(r.traceEventsRecorded, 0u);
}

TEST(QueueTimelines, AcceptQueueDepthsAreRecovered)
{
    Testbed bed(smallConfig());
    ExperimentResult r = bed.run();
    // The default kernel funnels everything through the shared queue.
    auto it = r.queueTimelines.find("accept-shared");
    ASSERT_NE(it, r.queueTimelines.end());
    ASSERT_FALSE(it->second.empty());
    Tick prev = 0;
    for (const QueueSample &qs : it->second) {
        EXPECT_GE(qs.tick, prev);
        prev = qs.tick;
        EXPECT_EQ(qs.queue, TraceQueueId::kAcceptShared);
    }
}

TEST(BenchJson, DocumentCarriesSchemaVersionAndRequiredKeys)
{
    ExperimentConfig cfg = smallConfig();
    cfg.statWindows = 2;
    cfg.machine.traceEnabled = false;
    Testbed bed(cfg);
    ExperimentResult r = bed.run();

    ExperimentConfig armed = cfg;
    std::string err;
    ASSERT_TRUE(parseFaultPlan("loss_burst@0.001-0.002:rate=0.1",
                               armed.faults, err)) << err;

    BenchJsonReport report("unit_test");
    report.addRow("plain", cfg, r);
    report.addRow("armed", armed, r);
    EXPECT_EQ(report.rowCount(), 2u);
    std::string doc = report.str();
    EXPECT_NE(doc.find("\"schema_version\":11"), std::string::npos);

    const std::size_t armed_at = doc.find("\"label\":\"armed\"");
    ASSERT_NE(armed_at, std::string::npos);
    const std::string plain = doc.substr(0, armed_at);
    const std::string armed_row = doc.substr(armed_at);
    // An untraced single-machine row omits every optional block, and
    // an armed plan adds exactly the faults block.
    EXPECT_EQ(plain.find("\"faults\":"), std::string::npos);
    for (const char *key : {"\"fleet\":", "\"timeseries\":",
                            "\"fleet_trace\":", "\"latency_stages\":"}) {
        EXPECT_EQ(plain.find(key), std::string::npos) << key;
        EXPECT_EQ(armed_row.find(key), std::string::npos) << key;
    }
    EXPECT_NE(armed_row.find("\"faults\":{\"plan\":\"loss_burst@"),
              std::string::npos);
    EXPECT_NE(plain.find("\"syn_cookies\":false"), std::string::npos);

    // Omission loses no data: each omitted block's source is still at
    // its default-constructed value.
    EXPECT_EQ(r.fleet, FleetResult{});
    EXPECT_EQ(r.fleetTrace, FleetTraceForensics{});
    EXPECT_EQ(r.timeseries, MetricsSnapshot{});
    EXPECT_EQ(r.spanForensics, SpanForensics{});

    // Window deltas: events scheduled during warmup may run inside the
    // window, so run and scheduled need not be ordered — both just have
    // to show the window did real work.
    EXPECT_GT(r.simEventsRun, 0u);
    EXPECT_GT(r.simEventsScheduled, 0u);
    // The short-lived run actively closed connections, so the census
    // must show TIME_WAIT traffic and a non-zero per-conn footprint.
    EXPECT_GT(r.conn.tcbLivePeak, 0u);
    EXPECT_GT(r.conn.bytesPerConn, 0.0);
    EXPECT_GT(r.conn.timeWaitEntered, 0u);
    EXPECT_GT(r.conn.ehashLookups, 0u);
    // statWindows=2 produced two per-window lock-stat deltas.
    EXPECT_EQ(r.lockWindows.size(), 2u);
}

} // namespace
} // namespace fsim
