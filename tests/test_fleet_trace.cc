/**
 * @file
 * Distributed-trace context survival across the balancer tier.
 *
 * The 64-bit trace id a client mints must ride every packet through
 * the L4 NAT rewrite and come back out attached to the server
 * machine's connection span — across steady service, a VIP failover
 * mid-flow, and a rolling-restart drain — on both kernels, without
 * perturbing the behavioral fingerprint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "fault/fault_injector.hh"
#include "fleet/fleet.hh"
#include "sim/rng.hh"

namespace fsim
{
namespace
{

FleetConfig
tracedFleet(const KernelConfig &kernel)
{
    FleetConfig fc;
    fc.serverMachines = 3;
    fc.balancers = 2;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 2;
    fc.base.machine.kernel = kernel;
    fc.base.machine.traceEnabled = true;
    fc.base.concurrencyPerCore = 20;
    fc.base.warmupSec = 0.005;
    fc.base.measureSec = 0.04;
    fc.base.statWindows = 4;
    fc.base.checkLevel = CheckLevel::kPeriodic;
    fc.base.clientTimeout = ticksFromMsec(30);
    fc.base.clientRtoBase = ticksFromUsec(8000);
    // Open loop so the launcher can be stopped for the settle phase
    // (a closed loop would relaunch forever and race the FIN gates).
    fc.openLoopRate = 30'000.0;
    return fc;
}

/** Stop launching, drain in-flight teardowns, re-collect. Without
 *  this, requests finishing in the last RTT legitimately lack a
 *  server span and the lossless-stitching checks would race. */
ExperimentResult
settle(FleetTestbed &bed)
{
    bed.load().setOpenLoopRate(0.0);
    bed.runUntilChecked(bed.eventQueue().now() + ticksFromMsec(20));
    return bed.collect();
}

/** Successful client requests with no server-machine span: must be
 *  zero after settle — every served request was served by SOMEONE. */
std::uint64_t
unstitchedOk(const FleetTraceLog &log)
{
    std::uint64_t n = 0;
    for (const FleetTrace &tr : log.records())
        if (tr.clientDone() && tr.ok() && !tr.stitched())
            ++n;
    return n;
}

const KernelConfig kBothKernels[2] = {KernelConfig::base2632(),
                                      KernelConfig::fastsocket()};

/** One machine-side candidate span for trace 42. */
struct Candidate
{
    bool orderly;
    Tick open;
    Tick close;       //!< 0: still live at collect
    Tick writeEnd;    //!< end of its one app-write span
    bool softirq;     //!< adds 20 ticks of softirq exec before the write
    std::vector<ConnSpan> spans;

    ConnSpanTrace
    trace()
    {
        spans.clear();
        if (softirq)
            spans.push_back({open + 10, open + 30, 0, 0,
                             ConnStage::kSoftirqRx});
        spans.push_back({writeEnd - 40, writeEnd, 0, 1,
                         ConnStage::kAppWrite});
        ConnSpanTrace tr;
        tr.traceId = 42;
        tr.openTick = open;
        tr.closeTick = close;
        tr.closed = orderly;
        tr.spans = spans;
        return tr;
    }
};

TEST(FleetTrace, StitchWinnerIndependentOfArrivalOrder)
{
    // Online stitching feeds spans in close order, collect() adds live
    // ones last; the stored winner must not depend on either.
    std::vector<Candidate> cands = {
        {true, 100, 900, 300, false, {}},     // orderly, service 200
        {true, 100, 950, 300, true, {}},      // ties it; later close wins
        {true, 100, 800, 200, false, {}},     // orderly, shorter service
        {false, 90, 1000, 800, false, {}},    // crash corpse, long service
        {false, 95, 0, 400, true, {}},        // live at collect
        {true, 120, 990, 320, false, {}},     // same service, later open
    };
    std::vector<int> order(cands.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    using Stored = std::tuple<bool, bool, Tick, Tick, Tick, Tick,
                              std::uint64_t>;
    bool first = true;
    Stored want;
    int perms = 0;
    do {
        FleetTraceLog log;
        log.clientStart(42, 1);
        for (int i : order)
            log.stitchMachineSpan(cands[i].trace());
        const FleetTrace &tr = log.records().front();
        const Stored got{tr.stitched(), tr.serverOrderly(),
                         tr.serverOpen(), tr.serverClose(),
                         tr.serverService(), tr.serverExec(),
                         log.machineSpansStitched()};
        if (first)
            want = got;
        first = false;
        ASSERT_EQ(got, want) << "permutation " << perms;
        ++perms;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(perms, 720);
    // The orderly span with the longest service, earliest open and
    // latest close: the second candidate.
    EXPECT_EQ(want, Stored(true, true, 100, 950, 200, 60, 1));
}

static_assert(sizeof(FleetTrace) <= 56,
              "a fleet trace record is paid once per simulated request");

/** Every field of @p tr, for whole-record comparisons. */
using Fields = std::tuple<std::uint64_t, Tick, Tick, bool, bool, int, Tick,
                          std::uint32_t, std::uint32_t, int, bool, bool,
                          Tick, Tick, Tick, Tick>;

Fields
fieldsOf(const FleetTrace &tr)
{
    return {tr.traceId(),     tr.clientStart(),   tr.clientEnd(),
            tr.clientDone(),  tr.ok(),            tr.lbId(),
            tr.lbIngress(),   tr.lbFlows(),       tr.lbForwards(),
            tr.serverSlot(),  tr.stitched(),      tr.serverOrderly(),
            tr.serverOpen(),  tr.serverClose(),   tr.serverService(),
            tr.serverExec()};
}

TEST(FleetTrace, RecordRoundTripsEveryFieldAtZeroAndAtItsLimit)
{
    FleetTrace fresh;
    EXPECT_EQ(fieldsOf(fresh),
              Fields(0, 0, 0, false, false, -1, 0, 0, 0, -1, false, false,
                     0, 0, 0, 0));

    FleetTrace zero(0, 0);
    zero.setClientStart(0);
    zero.setClientEnd(0, false);
    zero.addLbFlow(0, 0, 0);
    zero.setServerSpan(false, 0, 0, 0, 0);
    EXPECT_EQ(fieldsOf(zero),
              Fields(0, 0, 0, true, false, 0, 0, 1, 0, 0, true, false, 0,
                     0, 0, 0));

    // The largest value of every field; instants as far from
    // clientStart as the layout allows, before and after it.
    const Tick start = FleetTrace::kMaxClientStart;
    const Tick far = FleetTrace::kMaxDistance;
    FleetTrace top(~std::uint64_t{0}, start);
    top.setClientStart(start);
    top.setClientEnd(start + far, true);
    for (std::uint32_t k = 0; k < FleetTrace::kMaxLbFlows; ++k)
        top.addLbFlow(start - far, FleetTrace::kMaxLbId,
                      FleetTrace::kMaxServerSlot);
    for (std::uint32_t k = 0; k < FleetTrace::kMaxLbForwards; ++k)
        top.addLbForward();
    top.setServerSpan(true, start + far - 1, start + far,
                      FleetTrace::kMaxServerService,
                      FleetTrace::kMaxServerExec);
    EXPECT_EQ(fieldsOf(top),
              Fields(~std::uint64_t{0}, start, start + far, true, true,
                     FleetTrace::kMaxLbId, start - far,
                     FleetTrace::kMaxLbFlows, FleetTrace::kMaxLbForwards,
                     FleetTrace::kMaxServerSlot, true, true,
                     start + far - 1, start + far,
                     FleetTrace::kMaxServerService,
                     FleetTrace::kMaxServerExec));
    EXPECT_EQ(top.e2eLatency(), far);

    // A later, lower-ranked write replaces every server field: flags
    // clear as well as set.
    top.setServerSpan(false, start - 5, 0, 1, 2);
    EXPECT_FALSE(top.serverOrderly());
    EXPECT_EQ(top.serverOpen(), start - 5);
    EXPECT_EQ(top.serverClose(), 0u);
    EXPECT_EQ(top.serverService(), 1u);
    EXPECT_EQ(top.serverExec(), 2u);
}

TEST(FleetTrace, RecordRejectsValuesPastItsLayout)
{
    FleetTrace tr(1, 1000);
    tr.setClientStart(1000);
    EXPECT_DEATH(tr.setClientEnd(1000 + FleetTrace::kMaxDistance + 1, true),
                 "from its clientStart");
    EXPECT_DEATH(FleetTrace(1, FleetTrace::kMaxClientStart + 1),
                 "past 2\\^48");
    EXPECT_DEATH(tr.setServerSpan(true, 1000, 2000, 10,
                                  FleetTrace::kMaxServerExec + 1),
                 "exec time");
    EXPECT_DEATH(tr.addLbFlow(1000, FleetTrace::kMaxLbId + 1, 0),
                 "balancer id");
}

/** A span of @p id opened at @p open and closed at @p close whose
 *  response ends at @p write_end; exec is 20 softirq ticks plus the
 *  40-tick write. */
ConnSpanTrace
longSpan(std::uint64_t id, Tick open, Tick close, Tick write_end,
         std::vector<ConnSpan> &storage)
{
    storage = {{open + 10, open + 30, 0, 0, ConnStage::kSoftirqRx},
               {write_end - 40, write_end, 0, 1, ConnStage::kAppWrite}};
    ConnSpanTrace tr;
    tr.traceId = id;
    tr.openTick = open;
    tr.closeTick = close;
    tr.closed = true;
    tr.spans = storage;
    return tr;
}

TEST(FleetTrace, LongTraceRoundTripsThroughTheLog)
{
    // A server span that closes more than 2^32 ticks (1.72 sim-s)
    // after clientStart, with a service latency past 32 bits: the
    // offsets and the service field must keep every bit.
    const Tick t0 = ticksFromSeconds(3.0);
    const Tick past32 = (Tick{1} << 32) + 12345;
    std::vector<ConnSpan> a, b;
    const ConnSpanTrace slow = longSpan(9, t0 + 20, t0 + past32 + 50,
                                        t0 + past32, a);
    const ConnSpanTrace fast = longSpan(9, t0 + 25, t0 + 900, t0 + 800, b);
    ASSERT_GT(slow.serviceLatency(), Tick{1} << 32);

    Fields first;
    for (bool slowFirst : {true, false}) {
        FleetTraceLog log;
        log.clientStart(9, t0);
        log.lbIngress(9, t0 + 5, 1, 2);
        log.lbForward(9);
        log.stitchMachineSpan(slowFirst ? slow : fast);
        log.stitchMachineSpan(slowFirst ? fast : slow);
        log.clientEnd(9, t0 + past32 + 60, true);
        ASSERT_EQ(log.records().size(), 1u);
        const FleetTrace &tr = log.records().front();
        // The longer service wins in either arrival order.
        EXPECT_EQ(fieldsOf(tr),
                  Fields(9, t0, t0 + past32 + 60, true, true, 1, t0 + 5, 1,
                         1, 2, true, true, t0 + 20, t0 + past32 + 50,
                         past32 - 20, 60))
            << (slowFirst ? "slow span first" : "fast span first");
        EXPECT_EQ(tr.e2eLatency(), past32 + 60);
        EXPECT_EQ(log.machineSpansStitched(), 1u);
        if (slowFirst)
            first = fieldsOf(tr);
        else
            EXPECT_EQ(fieldsOf(tr), first);
    }
}

TEST(FleetTrace, RecordMadeBeforeClientStartReadsBack)
{
    // The balancer sees the SYN first; the client's start lands later
    // and becomes the base the earlier instants are measured from.
    const Tick t0 = ticksFromSeconds(500.0);    // past 2^40 ticks
    std::vector<ConnSpan> storage;
    FleetTraceLog log;
    log.lbIngress(5, t0, 3, 7);
    ConnSpanTrace live = longSpan(5, t0 + 40, 0, t0 + 200, storage);
    live.closed = false;                        // open at collect
    log.stitchMachineSpan(live);
    log.clientStart(5, t0 + 1000);
    log.clientEnd(5, t0 + 3000, false);
    EXPECT_EQ(log.duplicates(), 0u);
    EXPECT_EQ(fieldsOf(log.records().front()),
              Fields(5, t0 + 1000, t0 + 3000, true, false, 3, t0, 1, 0, 7,
                     true, false, t0 + 40, 0, 160, 60));
}

/**
 * Reference forensics: the sort-based builder the one-pass builder
 * replaced, kept verbatim in spirit — every completed-ok trace in
 * sortedCompleted() order, a stable sort by end-to-end latency for
 * the exemplars, and a full sort per hop for the percentiles.
 */
FleetTraceForensics
referenceForensics(const FleetTraceLog &log, Tick forward_delay)
{
    constexpr int kNumHops = 5;
    constexpr const char *kNames[kNumHops] = {
        "wire", "lb-ingress", "lb-nat", "server-exec", "backend-rtt",
    };
    const auto slices = [forward_delay](const FleetTrace &tr) {
        std::array<Tick, kNumHops> t{};
        const Tick e2e = tr.e2eLatency();
        const Tick ingress = Tick{tr.lbFlows()} * forward_delay;
        const Tick nat = tr.lbForwards() > tr.lbFlows()
            ? Tick{tr.lbForwards() - tr.lbFlows()} * forward_delay
            : 0;
        const Tick exec = std::min(tr.serverExec(), tr.serverService());
        const Tick rtt = tr.serverService() - exec;
        const Tick accounted = ingress + nat + exec + rtt;
        t[1] = ingress;
        t[2] = nat;
        t[3] = exec;
        t[4] = rtt;
        t[0] = e2e > accounted ? e2e - accounted : 0;
        return t;
    };
    const auto pct = [](const std::vector<Tick> &sorted, double q) {
        return sorted[static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1))];
    };

    FleetTraceForensics f;
    f.enabled = log.enabled();
    f.duplicates = log.duplicates();
    f.orphans = log.orphans();
    f.stitched = log.machineSpansStitched();
    if (!f.enabled)
        return f;
    std::vector<const FleetTrace *> done;
    for (const FleetTrace *tr : log.sortedCompleted())
        if (tr->ok())
            done.push_back(tr);
    f.tracesCompleted = done.size();
    if (done.empty())
        return f;

    std::vector<const FleetTrace *> byLat = done;
    std::stable_sort(byLat.begin(), byLat.end(),
                     [](const FleetTrace *a, const FleetTrace *b) {
                         return a->e2eLatency() < b->e2eLatency();
                     });
    const auto rankAt = [&](double q) {
        return byLat[static_cast<std::size_t>(
            q * static_cast<double>(byLat.size() - 1))];
    };
    f.e2eP50 = rankAt(0.50)->e2eLatency();
    f.e2eP99 = rankAt(0.99)->e2eLatency();
    f.e2eP999 = rankAt(0.999)->e2eLatency();

    std::array<std::vector<Tick>, kNumHops> perHop;
    std::array<double, kNumHops> hopSum{};
    double e2eSum = 0.0;
    for (const FleetTrace *tr : done) {
        const auto t = slices(*tr);
        for (int h = 0; h < kNumHops; ++h) {
            perHop[h].push_back(t[h]);
            hopSum[h] += static_cast<double>(t[h]);
        }
        e2eSum += static_cast<double>(tr->e2eLatency());
    }
    for (int h = 0; h < kNumHops; ++h) {
        std::sort(perHop[h].begin(), perHop[h].end());
        FleetHopStat st;
        st.hop = kNames[h];
        st.p50 = pct(perHop[h], 0.50);
        st.p99 = pct(perHop[h], 0.99);
        st.p999 = pct(perHop[h], 0.999);
        st.max = perHop[h].back();
        st.share = e2eSum > 0.0 ? hopSum[h] / e2eSum : 0.0;
        f.hops.push_back(st);
    }
    const auto dominant = [&](const FleetTrace *tr) {
        const auto t = slices(*tr);
        int best = 0;
        for (int h = 1; h < kNumHops; ++h)
            if (t[h] > t[best])
                best = h;
        return std::string(kNames[best]);
    };
    f.dominantP50 = dominant(rankAt(0.50));
    f.dominantP99 = dominant(rankAt(0.99));
    f.dominantP999 = dominant(rankAt(0.999));
    return f;
}

/** A machine span for @p id: optional softirq exec, then one app write
 *  ending at @p write_end (the service latency's end). */
ConnSpanTrace
machineSpan(std::uint64_t id, Tick open, Tick close, bool orderly,
            Tick write_end, Tick softirq, std::vector<ConnSpan> &storage)
{
    storage.clear();
    if (softirq > 0)
        storage.push_back({open + 1, open + 1 + softirq, 0, 0,
                           ConnStage::kSoftirqRx});
    storage.push_back({write_end - 3, write_end, 0, 1,
                       ConnStage::kAppWrite});
    ConnSpanTrace tr;
    tr.traceId = id;
    tr.openTick = open;
    tr.closeTick = close;
    tr.closed = orderly;
    tr.spans = storage;
    return tr;
}

/**
 * A random log with the cases forensics must order and filter: equal
 * client starts, equal end-to-end latencies, failed and unfinished
 * requests, orphans (no balancer flow), failover (two flows),
 * unstitched traces, re-stitched spans and duplicate starts. Starts
 * take @p starts distinct values and latencies @p latencies.
 */
void
fillRandomLog(FleetTraceLog &log, Rng &rng, std::size_t n,
              std::uint64_t starts, std::uint64_t latencies)
{
    std::vector<ConnSpan> storage;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t id = rng.next() | 1;
        const Tick start = 1000 + 10 * rng.range(starts);
        const Tick e2e = 50 + 25 * rng.range(latencies);
        log.clientStart(id, start);
        if (rng.chance(0.02))
            log.clientStart(id, start + 5);     // duplicate start
        const int flows = rng.chance(0.05) ? 0 : rng.chance(0.1) ? 2 : 1;
        for (int k = 0; k < flows; ++k)
            log.lbIngress(id, start + 2 + Tick(k), k,
                          static_cast<int>(rng.range(4)));
        const std::uint64_t forwards = rng.range(8);
        for (std::uint64_t k = 0; k < forwards; ++k)
            log.lbForward(id);
        const int spans = rng.chance(0.1) ? 0 : rng.chance(0.2) ? 2 : 1;
        for (int k = 0; k < spans; ++k) {
            const Tick open = start + 3 + rng.range(4);
            const Tick write = open + 4 + rng.range(e2e);
            log.stitchMachineSpan(machineSpan(
                id, open, rng.chance(0.2) ? 0 : write + 2,
                rng.chance(0.8), write, rng.range(3) * 7, storage));
        }
        if (rng.chance(0.9))
            log.clientEnd(id, start + e2e, rng.chance(0.9));
    }
}

TEST(FleetTrace, OnePassForensicsMatchesSortBasedReference)
{
    Rng rng(20160402);
    const Tick fd = 2;
    std::uint64_t orphans = 0;
    std::uint64_t unstitched = 0;
    for (int round = 0; round < 90; ++round) {
        // Tiny logs (0-3 traces) exercise the rank-index edges.
        const std::size_t n =
            round < 12 ? static_cast<std::size_t>(round % 4)
                       : 1 + rng.range(3000);
        FleetTraceLog log;
        if (round < 60) {
            // Few distinct starts and latencies: many exact ties.
            fillRandomLog(log, rng, n, n / 4 + 1, 12);
        } else {
            // One or two latencies and a handful of starts: each
            // exemplar is picked among hundreds of traces of equal
            // latency, and often of equal start, so the (clientStart,
            // traceId) tie order decides which trace it is.
            fillRandomLog(log, rng, n, 1 + rng.range(4),
                          1 + rng.range(2));
        }
        const FleetTraceForensics want = referenceForensics(log, fd);
        const FleetTraceForensics got = buildFleetTraceForensics(log, fd);
        ASSERT_EQ(got, want) << "round " << round << ", " << n
                             << " traces";
        orphans += want.orphans;
        unstitched += unstitchedOk(log);
    }
    // The generator produced the cases it promises.
    EXPECT_GT(orphans, 0u);
    EXPECT_GT(unstitched, 0u);

    FleetTraceLog off;
    off.setEnabled(false);
    EXPECT_EQ(buildFleetTraceForensics(off, fd), referenceForensics(off, fd));
}

TEST(FleetTrace, ClientTraceIdSurvivesNatRewriteBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(tracedFleet(k));
        bed.run();
        ExperimentResult r = settle(bed);

        const FleetTraceLog &log = bed.traceLog();
        EXPECT_GT(r.fleet.tracesStarted, 500u);
        // Exact accounting: every launched connection minted a trace,
        // every finished one closed it.
        EXPECT_EQ(r.fleet.tracesStarted, bed.load().started());
        EXPECT_EQ(r.fleet.tracesCompleted,
                  bed.load().completed() + bed.load().failed());
        // Lossless stitching through the NAT rewrite: no successful
        // request is missing its balancer hop or its server span, and
        // no trace id was seen born twice.
        EXPECT_EQ(r.fleet.traceOrphans, 0u);
        EXPECT_EQ(r.fleet.traceDuplicates, 0u);
        EXPECT_EQ(unstitchedOk(log), 0u);
        EXPECT_GT(r.fleet.tracesStitched, 0u);
        // The span a trace stitched came from a real TCB whose id the
        // balancer could only have learned from the client's packet.
        for (const FleetTrace *tr : log.sortedCompleted()) {
            if (tr->ok()) {
                EXPECT_GE(tr->lbFlows(), 1u);
            }
        }
        EXPECT_EQ(r.fleet.spanReconcileViolations, 0u);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
        // Machines stitch each span as its connection closes and
        // retain none; only in-flight spans are left for collect.
        for (int s = 0; s < bed.machineCount(); ++s) {
            const ConnSpanLog &sl = bed.machine(s).tracer().connSpans();
            EXPECT_EQ(sl.completedCount(), 0u);
            EXPECT_EQ(sl.tracesDropped(), 0u);
            EXPECT_GT(sl.tracesHandedOff(), 0u);
            EXPECT_EQ(sl.opened(), sl.liveCount() + sl.tracesHandedOff());
        }
    }
}

TEST(FleetTrace, VipFailoverMidFlowKeepsTracesLossless)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig fc = tracedFleet(k);
        std::string err;
        ASSERT_TRUE(parseFaultPlan("lb_crash@0.015-0.03:target=0",
                                   fc.base.faults, err))
            << err;
        FleetTestbed bed(fc);
        bed.run();
        ExperimentResult r = settle(bed);

        // The fault actually exercised the takeover path.
        EXPECT_GE(r.fleet.lbCrashes, 1u);
        EXPECT_GE(r.fleet.vipTakeovers, 1u);
        // Flows re-NATted by the surviving balancer keep the client's
        // trace id: nothing orphans, nothing double-starts, and every
        // served request still joined a server span.
        EXPECT_EQ(r.fleet.traceOrphans, 0u);
        EXPECT_EQ(r.fleet.traceDuplicates, 0u);
        EXPECT_EQ(unstitchedOk(bed.traceLog()), 0u);
        EXPECT_EQ(r.fleet.tracesStarted, bed.load().started());
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(FleetTrace, RollingRestartDrainKeepsTracesStitched)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(tracedFleet(k));
        EventQueue &eq = bed.eventQueue();
        bed.startLoad();
        bed.runUntilChecked(ticksFromMsec(5));
        bed.beginRollingRestart(/*drainDeadline=*/ticksFromMsec(10),
                                /*downtime=*/ticksFromMsec(2));
        bed.runUntilChecked(eq.now() + ticksFromMsec(60));
        EXPECT_FALSE(bed.rollingRestartActive());
        ExperimentResult r = settle(bed);

        EXPECT_EQ(bed.restarts(),
                  static_cast<std::uint64_t>(bed.machineCount()));
        // Spans served by pre-restart generations still stitch: the
        // zombie generation's trace log outlives its machine.
        EXPECT_EQ(r.fleet.traceOrphans, 0u);
        EXPECT_EQ(r.fleet.traceDuplicates, 0u);
        EXPECT_EQ(unstitchedOk(bed.traceLog()), 0u);
        EXPECT_EQ(r.fleet.tracesStarted, bed.load().started());
        EXPECT_EQ(r.fleet.spanReconcileViolations, 0u);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(FleetTrace, TracingNeverPerturbsTheFingerprintBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig on = tracedFleet(k);
        FleetConfig off = tracedFleet(k);
        off.base.machine.traceEnabled = false;

        FleetTestbed bedOn(on);
        FleetTestbed bedOff(off);
        ExperimentResult rOn = bedOn.run();
        ExperimentResult rOff = bedOff.run();
        // Trace context rides the packets either way; recording it is
        // observation only. Same seed, same behavior, bit-identical.
        EXPECT_EQ(rOn.fingerprint, rOff.fingerprint);
        EXPECT_EQ(bedOn.currentFingerprint(), bedOff.currentFingerprint());

        // And tracing itself is deterministic: a second traced run
        // reproduces the stitching counters exactly.
        FleetTestbed bedOn2(on);
        ExperimentResult rOn2 = bedOn2.run();
        EXPECT_EQ(rOn.fingerprint, rOn2.fingerprint);
        EXPECT_EQ(rOn.fleet.tracesStarted, rOn2.fleet.tracesStarted);
        EXPECT_EQ(rOn.fleet.tracesStitched, rOn2.fleet.tracesStitched);
        EXPECT_EQ(rOn.fleet.tracesCompleted,
                  rOn2.fleet.tracesCompleted);
    }
}

} // namespace
} // namespace fsim
