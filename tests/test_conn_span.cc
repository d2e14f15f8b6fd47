/**
 * @file
 * Tests for the per-connection span log: lifecycle conservation,
 * retention versus stitch-at-close, accept-queue sojourn placement,
 * exec-time reconciliation against CPU busy cycles, --notrace zero-cost,
 * forensics determinism, the Perfetto exporter's flow/slice
 * accounting, and a pin over the span stream every recording site emits.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <sstream>
#include <tuple>

#include "check/scenario.hh"
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
    log.close(7, 600, 600);

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
    log.close(1, 30, 30);
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
    log.close(1, 10000, 10000);
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
        log.close(id, t + 8, t + 8);
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
        stitched += tr.stitched();
        EXPECT_EQ(tr.serverService(), 6u);
        EXPECT_EQ(tr.serverExec(), 5u);
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
    log.close(42, 300, 300);

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

/**
 * Call @p fn(label, machine) after each traced run the span-stream
 * tests read: every single-machine corpus reproducer, drained the way
 * the scenario runner drains it with tracing forced on, then one quick
 * base-2.6.32 haproxy run, the only one whose connect() waits on the
 * port-bind lock.
 */
void
forEachTracedRun(
    const std::function<void(const std::string &, Machine &)> &fn)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(FSIM_CORPUS_DIR))
        if (entry.path().extension() == ".scn")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const std::filesystem::path &path : files) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        Scenario s;
        std::string err;
        ASSERT_TRUE(parseScenario(text.str(), s, err)) << path << ": "
                                                       << err;
        if (s.fleetMachines > 0)
            continue;   // fleet machines stitch at close, retain nothing
        s.traceEnabled = true;
        Testbed bed(s.toConfig());
        EventQueue &eq = bed.eventQueue();
        const Tick cap = ticksFromSeconds(s.maxSimSec);
        bed.startLoad();
        while (eq.now() < cap && (bed.load().inFlight() > 0 ||
                                  bed.load().started() < s.maxConns))
            bed.runUntilChecked(
                std::min(cap, eq.now() + ticksFromSeconds(0.01)));
        fn(path.filename().string(), bed.machine());
    }

    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 4;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.concurrencyPerCore = 150;
    cfg.backendCount = 16;
    cfg.warmupSec = 0.02;
    cfg.measureSec = 0.05;
    Testbed bed(cfg);
    bed.run();
    fn("haproxy-base-2.6.32", bed.machine());
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i, v >>= 8)
        h = (h ^ (v & 0xff)) * 0x100000001b3ull;
    return h;
}

std::uint64_t
hashSpan(std::uint64_t h, const ConnSpan &sp)
{
    h = fnv1a(h, static_cast<std::uint64_t>(sp.stage));
    h = fnv1a(h, static_cast<std::uint64_t>(sp.core));
    h = fnv1a(h, sp.begin);
    h = fnv1a(h, sp.end);
    return fnv1a(h, sp.aux);
}

TEST(ConnSpan, SpanStreamIsPinned)
{
    // Every span every recording site emitted, over runs that reach
    // every site. One hash takes each trace's spans in recorded order;
    // the other sorts them, since consumers order spans by time and
    // only the sorted stream is a semantic contract.
    std::uint64_t ordered = 0xcbf29ce484222325ull;
    std::uint64_t sorted = ordered;
    std::uint64_t traces = 0;
    int stage_seen[kNumConnStages] = {};
    bool slock_wait = false;
    bool portbind_wait = false;
    std::vector<ConnSpan> buf;
    forEachTracedRun([&](const std::string &, Machine &m) {
        const ConnSpanLog &log = m.tracer().connSpans();
        const std::uint16_t slock = m.locks().getClass("slock")->traceId;
        const std::uint16_t portbind =
            m.locks().getClass("portbind.lock")->traceId;
        for (const ConnSpanTrace &tr : log.completed()) {
            ++traces;
            for (std::uint64_t *h : {&ordered, &sorted}) {
                *h = fnv1a(*h, tr.connId);
                *h = fnv1a(*h, tr.traceId);
                *h = fnv1a(*h, tr.openTick);
                *h = fnv1a(*h, tr.closeTick);
                *h = fnv1a(*h, tr.passive);
                *h = fnv1a(*h, tr.closed);
                *h = fnv1a(*h, tr.shedReason);
                *h = fnv1a(*h, tr.spans.size());
            }
            buf.assign(tr.spans.begin(), tr.spans.end());
            for (const ConnSpan &sp : buf) {
                ordered = hashSpan(ordered, sp);
                ++stage_seen[static_cast<int>(sp.stage)];
                if (sp.stage == ConnStage::kLockWait) {
                    slock_wait = slock_wait || sp.aux == slock;
                    portbind_wait = portbind_wait || sp.aux == portbind;
                }
            }
            std::sort(buf.begin(), buf.end(),
                      [](const ConnSpan &a, const ConnSpan &b) {
                          return std::tie(a.begin, a.end, a.stage, a.core,
                                          a.aux) <
                                 std::tie(b.begin, b.end, b.stage, b.core,
                                          b.aux);
                      });
            for (const ConnSpan &sp : buf)
                sorted = hashSpan(sorted, sp);
        }
        for (std::uint64_t *h : {&ordered, &sorted}) {
            *h = fnv1a(*h, log.spansRecorded());
            *h = fnv1a(*h, log.spansDropped());
            *h = fnv1a(*h, log.tracesDropped());
        }
    });

    for (int st = 0; st < kNumConnStages; ++st)
        EXPECT_GT(stage_seen[st], 0)
            << connStageName(static_cast<ConnStage>(st))
            << " never recorded: a recording site left the pin";
    EXPECT_TRUE(slock_wait);
    EXPECT_TRUE(portbind_wait);
    EXPECT_EQ(traces, 21629u);
    EXPECT_EQ(ordered, 0x132b1eda9e8a2c9bull)
        << "actual 0x" << std::hex << ordered;
    EXPECT_EQ(sorted, 0x255b83aac0bc6bafull)
        << "actual 0x" << std::hex << sorted;
}

TEST(ConnSpan, SubSpansLieInsideTheirExecSpans)
{
    // A lock wait or VFS sub-span is part of some exec span of its own
    // connection on its own core. A core transfer is recorded just
    // before the exec span of the handler that took the steered packet
    // and ends where that span begins; when the steering core's tick
    // cursor had run past the handler's start, it is empty at the
    // steer tick instead.
    std::uint64_t subs = 0;
    std::uint64_t transfers = 0;
    std::uint64_t empty_transfers = 0;
    std::uint64_t bad = 0;
    std::string first_bad;
    forEachTracedRun([&](const std::string &label, Machine &m) {
        const ConnSpanLog &log = m.tracer().connSpans();
        EXPECT_EQ(log.spansDropped(), 0u) << label;
        for (const ConnSpanTrace &tr : log.completed()) {
            EXPECT_LT(tr.spans.size(), ConnSpanLog::kMaxSpansPerConn)
                << label << " conn " << tr.connId;
            for (std::size_t i = 0; i < tr.spans.size(); ++i) {
                const ConnSpan &sp = tr.spans[i];
                bool held;
                if (sp.stage == ConnStage::kCoreTransfer) {
                    ++transfers;
                    const ConnSpan *next =
                        i + 1 < tr.spans.size() ? &tr.spans[i + 1]
                                                : nullptr;
                    held = next &&
                           connStageKind(next->stage) ==
                               ConnStageKind::kExec &&
                           next->core == sp.core &&
                           sp.end == std::max(next->begin, sp.begin);
                    empty_transfers += held && next->begin < sp.begin;
                } else if (connStageKind(sp.stage) ==
                           ConnStageKind::kSub) {
                    ++subs;
                    held = std::any_of(
                        tr.spans.begin(), tr.spans.end(),
                        [&](const ConnSpan &ex) {
                            return connStageKind(ex.stage) ==
                                       ConnStageKind::kExec &&
                                   ex.core == sp.core &&
                                   ex.begin <= sp.begin &&
                                   sp.end <= ex.end;
                        });
                } else {
                    continue;
                }
                if (!held && bad++ == 0)
                    first_bad = label + " conn " +
                                std::to_string(tr.connId) + " " +
                                connStageName(sp.stage) + " [" +
                                std::to_string(sp.begin) + ", " +
                                std::to_string(sp.end) + "]";
            }
        }
    });
    EXPECT_EQ(bad, 0u) << "first: " << first_bad;
    EXPECT_GT(subs, 0u);
    EXPECT_GT(transfers, empty_transfers);
}

} // namespace
} // namespace fsim
