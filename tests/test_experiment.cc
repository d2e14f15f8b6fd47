/**
 * @file
 * Tests for the experiment harness itself: window accounting, lock
 * deltas, metric plumbing, and the collect() contract both testbeds
 * share.
 */

#include <gtest/gtest.h>

#include "fault/fault_plan.hh"
#include "fleet/fleet.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

TEST(LockDelta, SubtractsPerClass)
{
    std::map<std::string, LockClassStats> before, after;
    before["slock"].acquisitions = 10;
    before["slock"].contentions = 2;
    before["slock"].waitTicks = 100;
    after["slock"].acquisitions = 25;
    after["slock"].contentions = 7;
    after["slock"].waitTicks = 400;
    after["new.lock"].acquisitions = 3;
    // A restarted machine's counters start over below the mark.
    before["reset"].acquisitions = 40;
    before["reset"].waitTicks = 900;
    after["reset"].acquisitions = 6;
    after["reset"].waitTicks = 1000;

    auto d = lockDelta(before, after);
    EXPECT_EQ(d["slock"].acquisitions, 15u);
    EXPECT_EQ(d["slock"].contentions, 5u);
    EXPECT_EQ(d["slock"].waitTicks, 300u);
    EXPECT_EQ(d["new.lock"].acquisitions, 3u);
    EXPECT_EQ(d["reset"].acquisitions, 0u) << "must saturate, not wrap";
    EXPECT_EQ(d["reset"].waitTicks, 100u);
}

TEST(ExperimentResult, UtilHelpers)
{
    ExperimentResult r;
    r.coreUtil = {0.2, 0.8, 0.5};
    EXPECT_DOUBLE_EQ(r.maxUtil(), 0.8);
    EXPECT_DOUBLE_EQ(r.minUtil(), 0.2);
    EXPECT_NEAR(r.avgUtil(), 0.5, 1e-9);
    ExperimentResult empty;
    EXPECT_EQ(empty.maxUtil(), 0.0);
    EXPECT_EQ(empty.avgUtil(), 0.0);
}

TEST(Harness, MeasurementWindowExcludesWarmup)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 30;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.02;
    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    // Served in the window must be below the all-time total.
    EXPECT_LT(r.served, bed.app().served());
    EXPECT_GT(r.served, 0u);
    // cps is per *measured* second.
    double implied = static_cast<double>(r.served) / cfg.measureSec;
    EXPECT_NEAR(r.cps, implied, implied * 0.25);
}

TEST(Harness, DeterministicAcrossRuns)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    ExperimentResult a = runExperiment(cfg);
    ExperimentResult b = runExperiment(cfg);
    EXPECT_EQ(a.served, b.served);
    EXPECT_DOUBLE_EQ(a.cps, b.cps);
    EXPECT_DOUBLE_EQ(a.l3MissRate, b.l3MissRate);
}

TEST(Harness, SeedChangesOutcomeSlightly)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    ExperimentResult a = runExperiment(cfg);
    cfg.machine.seed = 999;
    ExperimentResult b = runExperiment(cfg);
    // Different random streams; throughput should be in the same band.
    EXPECT_NEAR(a.cps, b.cps, a.cps * 0.3 + 1000);
}

TEST(Harness, LockCycleShareComputed)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 4;
    cfg.concurrencyPerCore = 50;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.02;
    ExperimentResult r = runExperiment(cfg);
    double total = 0.0;
    for (const auto &kv : r.lockCycleShare) {
        EXPECT_GE(kv.second, 0.0);
        EXPECT_LE(kv.second, 1.0);
        total += kv.second;
    }
    EXPECT_LE(total, 1.0);
}

TEST(Harness, HaproxyTestbedWiresBackends)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.backendCount = 3;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    Testbed bed(cfg);
    ASSERT_NE(bed.backends(), nullptr);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.served, 0u);
    EXPECT_GT(bed.backends()->requestsServed(), 0u);
}

TEST(Harness, NginxTestbedHasNoBackends)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 1;
    cfg.concurrencyPerCore = 5;
    Testbed bed(cfg);
    EXPECT_EQ(bed.backends(), nullptr);
}

TEST(Harness, ListenBacklogReachesEveryListenSocket)
{
    // The global listeners, Fastsocket's per-core local clones and the
    // 3.13 SO_REUSEPORT clones all take cfg.listenBacklog.
    const KernelConfig kernels[] = {KernelConfig::base2632(),
                                    KernelConfig::linux313(),
                                    KernelConfig::fastsocket()};
    for (const KernelConfig &k : kernels) {
        ExperimentConfig cfg;
        cfg.machine.cores = 3;
        cfg.machine.kernel = k;
        cfg.concurrencyPerCore = 1;
        cfg.listenBacklog = 37;
        Testbed bed(cfg);
        std::size_t global = 0, local = 0, reuse = 0;
        for (const Socket *s : bed.machine().kernel().allSockets()) {
            if (s->kind != SockKind::kListen)
                continue;
            EXPECT_EQ(s->backlog, 37u);
            if (s->isLocalListen)
                ++local;
            else if (s->reuseportOwner >= 0)
                ++reuse;
            else
                ++global;
        }
        const std::size_t addrs = bed.machine().addrs().size();
        const std::size_t clones = addrs * 3;
        EXPECT_EQ(global, k.reuseport() ? 0 : addrs);
        EXPECT_EQ(local, k.localListen ? clones : 0);
        EXPECT_EQ(reuse, k.reuseport() ? clones : 0);
    }
}

TEST(Harness, RxPacketsTracked)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    ExperimentResult r = runExperiment(cfg);
    // Each served connection involves several RX packets.
    EXPECT_GT(r.rxPackets, r.served * 3);
}

/** Collecting reads the finished window: a second call on the same
 *  window must report the same figures (bench drivers time repeated
 *  collect() calls). */
void
expectSameCollect(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_DOUBLE_EQ(a.cps, b.cps);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.locks.size(), b.locks.size());
    EXPECT_EQ(a.conn.tcbLive, b.conn.tcbLive);
    EXPECT_EQ(a.conn.tcbLivePeak, b.conn.tcbLivePeak);
    EXPECT_EQ(a.conn.tcbCreated, b.conn.tcbCreated);
    EXPECT_EQ(a.conn.slabBytes, b.conn.slabBytes);
    EXPECT_EQ(a.conn.establishedCurr, b.conn.establishedCurr);
    EXPECT_EQ(a.conn.timeWaitCurr, b.conn.timeWaitCurr);
    EXPECT_EQ(a.conn.timeWaitEntered, b.conn.timeWaitEntered);
    EXPECT_EQ(a.conn.ehashLookups, b.conn.ehashLookups);
    EXPECT_DOUBLE_EQ(a.conn.avgProbeLen, b.conn.avgProbeLen);
    EXPECT_EQ(a.fleet.tracesStarted, b.fleet.tracesStarted);
    EXPECT_EQ(a.fleet.tracesCompleted, b.fleet.tracesCompleted);
    EXPECT_EQ(a.fleet.tracesStitched, b.fleet.tracesStitched);
    EXPECT_EQ(a.fleet.traceOrphans, b.fleet.traceOrphans);
    EXPECT_EQ(a.fleet.traceDuplicates, b.fleet.traceDuplicates);
    EXPECT_EQ(a.fleet.spanReconcileViolations,
              b.fleet.spanReconcileViolations);
}

TEST(Collect, RepeatedCollectIsStableOnTestbed)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.backendCount = 3;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    ExperimentResult a = bed.collect();
    ExperimentResult b = bed.collect();
    EXPECT_GT(a.served, 0u);
    expectSameCollect(r, a);
    expectSameCollect(a, b);
}

TEST(Collect, RepeatedCollectIsStableOnFleet)
{
    // Traced, with a rolling restart inside the window: retired
    // generations, banked window counters and span stitching are all
    // live when collect() runs.
    FleetConfig fc;
    fc.serverMachines = 3;
    fc.balancers = 2;
    fc.base.machine.cores = 2;
    fc.base.machine.traceEnabled = true;
    fc.base.concurrencyPerCore = 20;
    fc.base.warmupSec = 0.005;
    fc.base.measureSec = 0.04;
    fc.base.statWindows = 2;
    fc.base.clientTimeout = ticksFromMsec(30);
    fc.base.clientRtoBase = ticksFromUsec(8000);
    std::string err;
    ASSERT_TRUE(parseFaultPlan(
        "rolling_restart@0.01-0.02:drain_ms=4,down_ms=2", fc.base.faults,
        err))
        << err;
    FleetTestbed bed(fc);
    ExperimentResult r = bed.run();
    ExperimentResult a = bed.collect();
    ExperimentResult b = bed.collect();
    EXPECT_GT(a.fleet.restarts, 0u);
    EXPECT_GT(a.fleet.tracesStitched, 0u);
    expectSameCollect(r, a);
    expectSameCollect(a, b);
}

} // anonymous namespace
} // namespace fsim
