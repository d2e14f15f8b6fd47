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
#include <tuple>

#include "fault/fault_injector.hh"
#include "fleet/fleet.hh"

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
        if (tr.clientDone && tr.ok && !tr.stitched)
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
        const Stored got{tr.stitched, tr.serverOrderly, tr.serverOpen,
                         tr.serverClose, tr.serverService, tr.serverExec,
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
            if (tr->ok) {
                EXPECT_GE(tr->lbFlows, 1u);
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
