/**
 * @file
 * Tests for the per-connection span log: lifecycle conservation,
 * retention versus stitch-at-close, accept-queue sojourn placement,
 * exec-time reconciliation against CPU busy cycles, --notrace zero-cost,
 * forensics determinism, and the Perfetto exporter's flow/slice
 * accounting.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "trace/conn_span.hh"
#include "trace/fleet_trace.hh"
#include "trace/perfetto_export.hh"
#include "trace/span_forensics.hh"

namespace fsim
{
namespace
{

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 30;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.02;
    return cfg;
}

TEST(ConnSpanLog, RecordsLifecycleAndLatency)
{
    ConnSpanLog log;
    log.open(7, 100, /*passive=*/true);
    log.add(7, ConnStage::kSynRx, 0, 100, 140);
    log.add(7, ConnStage::kAcceptQueue, 0, 140, 300);
    log.add(7, ConnStage::kAccept, 1, 300, 360);
    log.add(7, ConnStage::kAppRead, 1, 400, 420);
    log.add(7, ConnStage::kAppWrite, 1, 420, 470);
    log.close(7, 600);

    ASSERT_EQ(log.completedCount(), 1u);
    EXPECT_EQ(log.liveCount(), 0u);
    const ConnSpanTrace &tr = log.completed().front();
    EXPECT_EQ(tr.connId, 7u);
    EXPECT_TRUE(tr.closed);
    EXPECT_TRUE(tr.passive);
    EXPECT_EQ(tr.openTick, 100u);
    EXPECT_EQ(tr.closeTick, 600u);
    EXPECT_EQ(tr.stageTicks(ConnStage::kAcceptQueue), 160u);
    // Latency runs to the end of the last write, not to destruction.
    EXPECT_EQ(tr.serviceLatency(), 470u - 100u);
    // Spans on unknown ids (already destroyed) are silently ignored.
    log.add(999, ConnStage::kSoftirqRx, 0, 700, 710);
    EXPECT_EQ(log.spansRecorded(), 5u);
}

TEST(ConnSpanLog, DisabledIsFree)
{
    ConnSpanLog log;
    log.setEnabled(false);
    log.open(1, 10, true);
    log.add(1, ConnStage::kSynRx, 0, 10, 20);
    log.noteShed(1, 0);
    log.close(1, 30);
    EXPECT_EQ(log.allocations(), 0u);
    EXPECT_EQ(log.opened(), 0u);
    EXPECT_EQ(log.completedCount(), 0u);
    EXPECT_EQ(log.execSelfTicks(0), 0u);
}

TEST(ConnSpanLog, PerConnSpanCapCountsDrops)
{
    ConnSpanLog log;
    log.open(1, 0, true);
    const std::size_t extra = 5;
    for (std::size_t i = 0; i < ConnSpanLog::kMaxSpansPerConn + extra;
         ++i) {
        Tick b = static_cast<Tick>(i * 10);
        log.add(1, ConnStage::kSoftirqRx, 0, b, b + 4);
    }
    EXPECT_EQ(log.spansDropped(), extra);
    log.close(1, 10000);
    EXPECT_EQ(log.completed().front().spans.size(),
              ConnSpanLog::kMaxSpansPerConn);
    // Exec accounting still covers the dropped spans: the core ran them
    // whether or not the per-connection vector kept them.
    EXPECT_EQ(log.execSelfTicks(0),
              4u * (ConnSpanLog::kMaxSpansPerConn + extra));
}

/** Open, span and close @p n traced connections (conn id = trace id,
 *  1..n) on @p log, each with a client record in @p fleet. */
void
churn(ConnSpanLog &log, FleetTraceLog &fleet, std::uint64_t n)
{
    for (std::uint64_t id = 1; id <= n; ++id) {
        const Tick t = id * 10;
        fleet.clientStart(id, t);
        log.open(id, t, /*passive=*/true);
        log.setTraceId(id, id);
        log.add(id, ConnStage::kAppWrite, 0, t + 1, t + 6);
        log.close(id, t + 8);
    }
}

TEST(ConnSpanLog, FleetWiredLogStitchesPastRetention)
{
    const std::uint64_t n = ConnSpanLog::kMaxRetainedTraces + 1;
    FleetTraceLog fleet;
    ConnSpanLog log;
    log.stitchInto(&fleet);
    churn(log, fleet, n);

    // Every trace joined its record at close, none was retained, and
    // none fell to the retention cap.
    EXPECT_EQ(fleet.machineSpansStitched(), n);
    EXPECT_EQ(log.tracesHandedOff(), n);
    EXPECT_EQ(log.completedCount(), 0u);
    EXPECT_EQ(log.tracesDropped(), 0u);
    EXPECT_EQ(log.liveCount(), 0u);
    EXPECT_EQ(log.opened(), log.completedCount() + log.tracesDropped() +
                                log.tracesHandedOff());
    std::uint64_t stitched = 0;
    for (const FleetTrace &tr : fleet.records()) {
        stitched += tr.stitched;
        EXPECT_EQ(tr.serverService, 6u);
        EXPECT_EQ(tr.serverExec, 5u);
    }
    EXPECT_EQ(stitched, n);
    // One recycled slot and span buffer served every connection.
    EXPECT_EQ(log.allocations(), 2u);
}

TEST(ConnSpanLog, UnwiredLogRetainsUpToCapThenDrops)
{
    const std::uint64_t n = ConnSpanLog::kMaxRetainedTraces + 1;
    FleetTraceLog fleet;
    ConnSpanLog log;
    churn(log, fleet, n);

    EXPECT_EQ(fleet.machineSpansStitched(), 0u);
    EXPECT_EQ(log.tracesHandedOff(), 0u);
    EXPECT_EQ(log.completedCount(), ConnSpanLog::kMaxRetainedTraces);
    EXPECT_EQ(log.tracesDropped(), 1u);
    EXPECT_EQ(log.opened(), log.completedCount() + log.tracesDropped() +
                                log.tracesHandedOff());
    // Retained spans are copies: intact after their slot was reused.
    const ConnSpanTrace &last = log.completed().back();
    EXPECT_EQ(last.connId, ConnSpanLog::kMaxRetainedTraces);
    ASSERT_EQ(last.spans.size(), 1u);
    EXPECT_EQ(last.spans.front().begin, last.openTick + 1);
    EXPECT_EQ(log.completed().front().spans.front().end, 16u);
}

TEST(ConnSpanTest, LifecycleConservation)
{
    ExperimentConfig cfg = smallConfig();
    Testbed bed(cfg);
    bed.run();

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    // Every trace ever opened is either completed or still live.
    EXPECT_EQ(log.opened(), log.closedTotal() + log.liveCount());
    EXPECT_EQ(log.closedTotal(),
              log.completedCount() + log.tracesDropped());
    EXPECT_GT(log.completedCount(), 0u);

    for (const ConnSpanTrace &tr : log.completed()) {
        EXPECT_TRUE(tr.closed);
        EXPECT_GE(tr.closeTick, tr.openTick);
        for (const ConnSpan &sp : tr.spans) {
            EXPECT_LE(sp.begin, sp.end);
            EXPECT_GE(sp.begin, tr.openTick);
            EXPECT_LE(sp.end, tr.closeTick);
        }
    }
}

TEST(ConnSpanTest, AcceptQueueSojournSpansMatchDequeue)
{
    ExperimentConfig cfg = smallConfig();
    Testbed bed(cfg);
    bed.run();

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    std::size_t checked = 0;
    for (const ConnSpanTrace &tr : log.completed()) {
        if (!tr.passive)
            continue;
        const ConnSpan *queue = nullptr;
        const ConnSpan *accept = nullptr;
        std::size_t queue_spans = 0;
        for (const ConnSpan &sp : tr.spans) {
            if (sp.stage == ConnStage::kAcceptQueue) {
                queue = &sp;
                ++queue_spans;
            } else if (sp.stage == ConnStage::kAccept) {
                accept = &sp;
            }
        }
        if (!accept)
            continue;   // destroyed before accept (overflow, reset)
        ++checked;
        // Accepted exactly once => exactly one sojourn span, and the
        // dequeue instant lies inside the accept() syscall that popped
        // the connection: enqueue <= dequeue, dequeue within accept.
        ASSERT_NE(queue, nullptr);
        EXPECT_EQ(queue_spans, 1u);
        EXPECT_LE(queue->begin, queue->end);
        EXPECT_GE(queue->end, accept->begin);
        EXPECT_LE(queue->end, accept->end);
    }
    EXPECT_GT(checked, 0u);
}

TEST(ConnSpanTest, ExecTimeReconcilesWithBusyCycles)
{
    ExperimentConfig cfg = smallConfig();
    Testbed bed(cfg);
    bed.run();

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    std::uint64_t total_exec = 0;
    for (int c = 0; c < bed.machine().numCores(); ++c) {
        std::uint64_t exec = log.execSelfTicks(c);
        std::uint64_t busy = bed.machine().cpu().core(c).busyTicks();
        // Exec spans are sub-intervals of serially executed tasks: the
        // per-core recorded exec time can never exceed busy time.
        EXPECT_LE(exec, busy) << "core " << c;
        total_exec += exec;
    }
    EXPECT_GT(total_exec, 0u);
}

TEST(ConnSpanTest, NotraceCostsNothingAndKeepsFingerprint)
{
    ExperimentConfig cfg = smallConfig();
    Testbed traced(cfg);
    ExperimentResult rt = traced.run();

    ExperimentConfig off = smallConfig();
    off.machine.traceEnabled = false;
    Testbed untraced(off);
    ExperimentResult ru = untraced.run();

    const ConnSpanLog &log = untraced.machine().tracer().connSpans();
    EXPECT_EQ(log.allocations(), 0u);
    EXPECT_EQ(log.opened(), 0u);
    EXPECT_EQ(log.completedCount(), 0u);
    EXPECT_FALSE(ru.spanForensics.enabled);
    // Tracing must not perturb simulated behavior.
    EXPECT_EQ(rt.fingerprint, ru.fingerprint);
    EXPECT_TRUE(rt.spanForensics.enabled);
    EXPECT_GT(rt.spanForensics.completed, 0u);
}

TEST(ConnSpanTest, ForensicsDeterministicAcrossRuns)
{
    ExperimentConfig cfg = smallConfig();
    Testbed a(cfg);
    ExperimentResult ra = a.run();
    Testbed b(cfg);
    ExperimentResult rb = b.run();

    EXPECT_EQ(ra.fingerprint, rb.fingerprint);
    EXPECT_EQ(renderSpanForensics(ra.spanForensics, "x"),
              renderSpanForensics(rb.spanForensics, "x"));
    ASSERT_EQ(ra.spanForensics.exemplars.size(),
              rb.spanForensics.exemplars.size());
    for (std::size_t i = 0; i < ra.spanForensics.exemplars.size(); ++i) {
        EXPECT_EQ(ra.spanForensics.exemplars[i].connId,
                  rb.spanForensics.exemplars[i].connId);
        EXPECT_EQ(ra.spanForensics.exemplars[i].latency,
                  rb.spanForensics.exemplars[i].latency);
    }
    EXPECT_EQ(ra.spanForensics.dominantTailStage,
              rb.spanForensics.dominantTailStage);
}

TEST(ConnSpanTest, ForensicsSingleConnPicksItEverywhere)
{
    ConnSpanLog log;
    log.open(42, 0, true);
    log.add(42, ConnStage::kSynRx, 0, 0, 10);
    log.add(42, ConnStage::kAcceptQueue, 0, 10, 200);
    log.add(42, ConnStage::kAccept, 1, 200, 230);
    log.add(42, ConnStage::kAppWrite, 1, 240, 260);
    log.close(42, 300);

    SpanForensics f = buildSpanForensics(log, 0);
    EXPECT_TRUE(f.enabled);
    EXPECT_EQ(f.completed, 1u);
    ASSERT_EQ(f.exemplars.size(), 3u);
    for (const ExemplarBreakdown &ex : f.exemplars) {
        EXPECT_EQ(ex.connId, 42u);
        EXPECT_EQ(ex.latency, 260u);
    }
    EXPECT_EQ(f.dominantTailStage, "accept-queue");
}

TEST(PerfettoExport, EmitsFlowsOnlyAcrossCores)
{
    const ConnSpan crossSpans[] = {{0, 20, 0, 0, ConnStage::kSynRx},
                                   {30, 50, 0, 1, ConnStage::kAppRead}};
    const ConnSpan localSpans[] = {{0, 20, 0, 0, ConnStage::kSynRx},
                                   {30, 50, 0, 0, ConnStage::kAppRead}};
    std::vector<ConnSpanTrace> traces;
    ConnSpanTrace cross;
    cross.connId = 1;
    cross.openTick = 0;
    cross.closeTick = 100;
    cross.closed = true;
    cross.spans = crossSpans;
    traces.push_back(cross);
    ConnSpanTrace local;
    local.connId = 2;
    local.openTick = 0;
    local.closeTick = 100;
    local.closed = true;
    local.spans = localSpans;
    traces.push_back(local);

    PerfettoMeta meta;
    meta.bench = "unit";
    meta.label = "flows";
    meta.cores = 2;
    const char *path = "test_conn_span_perfetto.json";
    PerfettoStats st;
    ASSERT_TRUE(writePerfettoTrace(path, traces, meta, &st));
    EXPECT_EQ(st.tracesExported, 2u);
    EXPECT_EQ(st.durationEvents, 8u);   // 4 spans -> paired B + E
    // Only the connection that hopped cores gets a flow arrow.
    EXPECT_EQ(st.flowPairs, 1u);
    EXPECT_FALSE(st.truncated);
    std::remove(path);
}

} // namespace
} // namespace fsim
