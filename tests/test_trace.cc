/**
 * @file
 * Tests for the trace subsystem: the queue-depth series against a
 * brute-force per-bucket max, its lazy storage (this binary includes
 * the counting allocator hook) and whole-window coverage on a real
 * testbed, phase attribution arithmetic, the cycle-conservation
 * invariant against the CPU model, the StageScope guard every kernel
 * entry opens, and the bench JSON block-presence rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_json.hh"
#include "harness/experiment.hh"
#include "sim/alloc_audit.hh"
#include "sim/rng.hh"
#include "trace/depth_series.hh"
#include "trace/phase_accounting.hh"
#include "trace/trace_report.hh"
#include "trace/trace_scope.hh"
#include "trace/tracer.hh"

#include "alloc_hook.hh"

namespace fsim
{
namespace
{

/** The series' buckets as (start tick, peak depth) pairs. */
std::vector<std::pair<Tick, std::uint32_t>>
buckets(const DepthSeries &s)
{
    std::vector<std::pair<Tick, std::uint32_t>> out;
    s.forEachBucket([&](Tick t, std::uint32_t d) { out.emplace_back(t, d); });
    return out;
}

/** Brute force: the max of every note in each @p width-tick bucket
 *  from @p origin, for the buckets that hold a note. */
std::vector<std::pair<Tick, std::uint32_t>>
bruteBuckets(const std::vector<std::pair<Tick, std::uint32_t>> &notes,
             Tick origin, Tick width)
{
    std::map<Tick, std::uint32_t> peak;
    for (const auto &[t, d] : notes) {
        const Tick start = origin + (t - origin) / width * width;
        auto it = peak.find(start);
        if (it == peak.end())
            peak.emplace(start, d);
        else
            it->second = std::max(it->second, d);
    }
    return {peak.begin(), peak.end()};
}

TEST(DepthSeries, MatchesBruteForcePerBucketMaxAcrossCoarsenings)
{
    Rng rng(7);
    DepthSeries s;
    const Tick origin = 1'000'000;
    s.reset(origin);
    std::vector<std::pair<Tick, std::uint32_t>> notes;
    Tick t = origin;
    Tick width = s.width();
    int coarsenings = 0;
    // Irregular gaps and bursty depths; each width change is checked
    // against the brute force at once, so every coarsening is covered.
    for (int i = 0; i < 20000; ++i) {
        t += rng.range(41);
        const std::uint32_t d = static_cast<std::uint32_t>(
            rng.range(i % 997 == 0 ? 5001 : 61));
        s.note(t, d);
        notes.emplace_back(t, d);
        if (s.width() != width) {
            ++coarsenings;
            width = s.width();
            ASSERT_EQ(buckets(s), bruteBuckets(notes, origin, width));
        }
    }
    EXPECT_GE(coarsenings, 3);
    const auto got = buckets(s);
    ASSERT_EQ(got, bruteBuckets(notes, origin, s.width()));
    EXPECT_LE(got.size(), DepthSeries::kMaxBuckets);

    // The peak is exact, and the series spans every note: the first
    // and last buckets hold the first and last notes.
    std::uint32_t peak = 0;
    for (const auto &n : notes)
        peak = std::max(peak, n.second);
    std::uint32_t series_peak = 0;
    for (const auto &b : got)
        series_peak = std::max(series_peak, b.second);
    EXPECT_EQ(series_peak, peak);
    EXPECT_LE(got.front().first, notes.front().first);
    EXPECT_GT(got.front().first + s.width(), notes.front().first);
    EXPECT_LE(got.back().first, notes.back().first);
    EXPECT_GT(got.back().first + s.width(), notes.back().first);
    // Coarsening stops as soon as the span fits: more than half of the
    // buckets are in use.
    EXPECT_GE(notes.back().first - origin,
              s.width() * (DepthSeries::kMaxBuckets / 2));

    // A note far past the end coarsens several times in one call.
    const Tick far = origin + s.width() * DepthSeries::kMaxBuckets * 16;
    s.note(far, 3);
    notes.emplace_back(far, 3);
    EXPECT_EQ(buckets(s), bruteBuckets(notes, origin, s.width()));
    EXPECT_LE(buckets(s).size(), DepthSeries::kMaxBuckets);

    // reset() starts a fresh window at its origin and width 1.
    s.reset(far + 10);
    EXPECT_TRUE(buckets(s).empty());
    EXPECT_EQ(s.width(), 1u);
    s.note(far + 12, 0);
    EXPECT_EQ(buckets(s),
              (std::vector<std::pair<Tick, std::uint32_t>>{{far + 12, 0}}));
}

TEST(DepthSeries, AllocatesOnFirstNoteOnly)
{
    DepthSeries s;
    EXPECT_EQ(s.storageBytes(), 0u);
    std::uint64_t first;
    {
        AllocAuditScope scope;
        s.note(0, 1);
        first = AllocAudit::disarm();
    }
    ASSERT_TRUE(AllocAudit::hooked());
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(s.storageBytes(),
              DepthSeries::kMaxBuckets * sizeof(std::uint32_t));

    // Coarsening and reset reuse the same buckets.
    std::uint64_t rest;
    {
        AllocAuditScope scope;
        for (Tick t = 1; t < 100'000; t += 7)
            s.note(t, static_cast<std::uint32_t>(t % 13));
        s.reset(200'000);
        s.note(200'005, 2);
        rest = AllocAudit::disarm();
    }
    EXPECT_EQ(rest, 0u);
    EXPECT_EQ(s.storageBytes(),
              DepthSeries::kMaxBuckets * sizeof(std::uint32_t));
}

/** A small two-core nginx testbed config, traced or not. */
ExperimentConfig
seriesConfig(bool traced)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.traceEnabled = traced;
    cfg.concurrencyPerCore = 20;
    return cfg;
}

TEST(QueueSeries, UntracedMachineHoldsNoSeriesStorage)
{
    Testbed bed(seriesConfig(/*traced=*/false));
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.02));
    ASSERT_GT(bed.load().completed(), 0u);
    const Tracer &tr = bed.machine().tracer();
    for (int q = 0; q < kNumTraceQueues; ++q) {
        const DepthSeries &s = tr.queueDepths(static_cast<TraceQueueId>(q));
        EXPECT_EQ(s.storageBytes(), 0u) << q;
        EXPECT_TRUE(buckets(s).empty()) << q;
    }
}

TEST(QueueSeries, TracedSteadyStateMakesNoSeriesAllocations)
{
    // After every busy queue's first note, the buckets never move or
    // grow: their heap block is the same one through the window,
    // across coarsenings and the reset at markWindows().
    Testbed bed(seriesConfig(/*traced=*/true));
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.005));
    const Tracer &tr = bed.machine().tracer();
    const auto &shared = tr.queueDepths(TraceQueueId::kAcceptShared);
    const auto &softirq = tr.queueDepths(TraceQueueId::kSoftirqBacklog);
    ASSERT_EQ(shared.storageBytes(),
              DepthSeries::kMaxBuckets * sizeof(std::uint32_t));
    ASSERT_EQ(softirq.storageBytes(), shared.storageBytes());
    EXPECT_GT(shared.width(), 1u);
    bed.markWindows();
    EXPECT_EQ(shared.width(), 1u);
    bed.runUntilChecked(bed.eventQueue().now() + ticksFromSeconds(0.02));
    EXPECT_GT(shared.width(), 1u);
    EXPECT_EQ(shared.storageBytes(),
              DepthSeries::kMaxBuckets * sizeof(std::uint32_t));
    EXPECT_EQ(softirq.storageBytes(), shared.storageBytes());
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

/** A lock whose every critical section waits @p wait cycles first. */
struct SpinningLock
{
    Tick wait = 0;

    Tick runLocked(CoreId, Tick t, Tick hold) { return t + wait + hold; }
    Tick lastWait() const { return wait; }
    std::uint16_t classTraceId() const { return 3; }
};

std::uint64_t
phaseCycles(const PhaseSnapshot &s, Phase p)
{
    return s.perCore[0][static_cast<int>(p)];
}

TEST(StageScope, RecordsNotedSpansThenStageThenLockWaits)
{
    Tracer tr(1);
    SpinningLock lock{5};
    tr.pushPhase(0, Phase::kSoftirq, 0);
    {
        // A steered SYN: the trace opens at the steer tick.
        StageScope sc(&tr, 0, 100);
        sc.steeredFrom(1, 60);
        sc.open(9, ConnStage::kSynRx, /*passive=*/true, /*trace_id=*/44);
        EXPECT_EQ(sc.locked(lock, 110, 20), 135u);
        EXPECT_EQ(sc.vfs(140, 150, 2), 150u);
        EXPECT_EQ(sc.locked(lock, 150, 10), 165u);
        EXPECT_EQ(sc.close(170), 170u);
    }
    tr.popPhase(0, 200);
    EXPECT_EQ(tr.phases().depth(0), 0);

    ConnSpanLog &log = tr.connSpans();
    log.close(9, 300, 300);
    ASSERT_EQ(log.completedCount(), 1u);
    const ConnSpanTrace &trace = log.completed().front();
    EXPECT_EQ(trace.openTick, 60u);
    EXPECT_EQ(trace.traceId, 44u);
    const ConnSpan want[] = {
        {60, 100, 1, 0, ConnStage::kCoreTransfer},
        {140, 150, 2, 0, ConnStage::kVfs},
        {100, 170, 0, 0, ConnStage::kSynRx},
        {110, 115, 3, 0, ConnStage::kLockWait},
        {150, 155, 3, 0, ConnStage::kLockWait},
    };
    ASSERT_EQ(trace.spans.size(), std::size(want));
    for (std::size_t i = 0; i < std::size(want); ++i) {
        EXPECT_EQ(trace.spans[i].stage, want[i].stage) << i;
        EXPECT_EQ(trace.spans[i].core, want[i].core) << i;
        EXPECT_EQ(trace.spans[i].begin, want[i].begin) << i;
        EXPECT_EQ(trace.spans[i].end, want[i].end) << i;
        EXPECT_EQ(trace.spans[i].aux, want[i].aux) << i;
    }
}

TEST(StageScope, UnboundOrUnclosedScopeRecordsNoSpan)
{
    Tracer tr(1);
    SpinningLock lock{5};
    ConnSpanLog &log = tr.connSpans();
    log.open(7, 0, /*passive=*/true);
    tr.pushPhase(0, Phase::kApp, 0);
    {
        // accept() on an empty queue: closed but never bound, so its
        // lock wait has no connection to land on. The frame still
        // charges the syscall's self time.
        StageScope sc(&tr, 0, 10, Phase::kSyscall);
        sc.locked(lock, 10, 5);
        sc.close(30);
    }
    {
        // An early return: bound, then left without close(). The frame
        // pops with zero self time and keeps the nested charge.
        StageScope sc(&tr, 0, 40, Phase::kSyscall);
        sc.bind(7, ConnStage::kAppRead);
        tr.chargePhase(0, Phase::kLockSpin, 7);
    }
    tr.popPhase(0, 100);

    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(phaseCycles(s, Phase::kSyscall), 20u);
    EXPECT_EQ(phaseCycles(s, Phase::kLockSpin), 7u);
    EXPECT_EQ(phaseCycles(s, Phase::kApp), 73u);
    EXPECT_EQ(tr.phases().depth(0), 0);
    EXPECT_EQ(log.spansRecorded(), 0u);
    // The unclosed scope unlinked itself: retiring the trace finds no
    // scope to record.
    log.close(7, 100, 100);
    ASSERT_EQ(log.completedCount(), 1u);
    EXPECT_TRUE(log.completed().front().spans.empty());
}

TEST(StageScope, DisabledTracerPushesNoFrameAndRecordsNothing)
{
    Tracer tr(1);
    tr.setEnabled(false);
    SpinningLock lock{5};
    std::uint64_t allocs;
    {
        AllocAuditScope audit;
        for (Tracer *t : {&tr, static_cast<Tracer *>(nullptr)}) {
            StageScope sc(t, 0, 10, Phase::kSyscall);
            EXPECT_FALSE(sc.tracing());
            sc.steeredFrom(1, 5);
            sc.open(1, ConnStage::kConnect, /*passive=*/false);
            EXPECT_EQ(tr.phases().depth(0), 0);
            // The critical section still runs; only the record is gone.
            EXPECT_EQ(sc.locked(lock, 10, 20), 35u);
            EXPECT_EQ(sc.vfs(35, 40, 2), 40u);
            EXPECT_EQ(sc.close(50), 50u);
        }
        allocs = AllocAudit::disarm();
    }
    ASSERT_TRUE(AllocAudit::hooked());
    EXPECT_EQ(allocs, 0u);
    const ConnSpanLog &log = tr.connSpans();
    EXPECT_EQ(log.opened(), 0u);
    EXPECT_EQ(log.spansRecorded(), 0u);
    EXPECT_EQ(log.allocations(), 0u);
    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(phaseCycles(s, Phase::kSyscall), 0u);
    EXPECT_TRUE(s.folded.empty());
}

TEST(Tracer, NoteLockSpinChargesLockSpinPhase)
{
    Tracer tr(1);
    tr.pushPhase(0, Phase::kSoftirq, 0);
    tr.noteLockSpin(0, 25);
    tr.noteLockSpin(0, 0);   // zero spin: no charge, no folded stack
    tr.popPhase(0, 200);

    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kLockSpin)], 25u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kSoftirq)], 175u);
    auto folded = decodedFolded(s);
    EXPECT_EQ(folded.size(), 2u);
    EXPECT_EQ(folded["softirq;lock-spin"], 25u);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tr(2);
    tr.setEnabled(false);
    tr.noteQueueDepth(TraceQueueId::kAcceptShared, 10, 4);
    tr.pushPhase(1, Phase::kApp, 0);
    tr.chargePhase(1, Phase::kLockSpin, 5);
    tr.noteLockSpin(1, 9);
    tr.popPhase(1, 100);
    EXPECT_EQ(tr.queueDepths(TraceQueueId::kAcceptShared).storageBytes(),
              0u);
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

TEST(QueueTimelines, SeriesSpanTheWholeWindowOnFastsocket24)
{
    // Fig. 4(a)'s fastsocket row: 24 busy cores note queue depths far
    // faster than any fixed per-core buffer could keep, yet every
    // accept and SoftIRQ series must still cover the whole window.
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 24;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 150;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    int checked = 0;
    for (const auto &[name, samples] : r.queueTimelines) {
        if (name.rfind("accept-", 0) != 0 && name != "softirq-backlog")
            continue;
        ++checked;
        ASSERT_FALSE(samples.empty()) << name;
        EXPECT_LE(samples.size(), DepthSeries::kMaxBuckets) << name;
        const Tick span = samples.back().tick - samples.front().tick;
        EXPECT_GE(span * 100, r.windowSpan * 95)
            << name << " spans " << span << " of " << r.windowSpan;
        EXPECT_LE(span, r.windowSpan) << name;
        for (std::size_t i = 1; i < samples.size(); ++i)
            EXPECT_LT(samples[i - 1].tick, samples[i].tick) << name;
    }
    EXPECT_GE(checked, 2);
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
    EXPECT_NE(doc.find("\"schema_version\":12"), std::string::npos);

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
