/**
 * @file
 * Tests for the secondary paper features: RFD rule-3 precise
 * classification end-to-end (non-well-known service/backend ports), the
 * nginx accept mutex, randomized RFD hash bits under load, and the
 * legacy port-bind serialization.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace fsim
{
namespace
{

TEST(RfdRule3, HighPortsStillGetCompleteLocality)
{
    // Service on 8080 and backends on 9090: neither port is well-known,
    // so RFD classification must fall through to rule 3 (the listener
    // probe) for passive traffic and classify backend replies as active
    // by exclusion. Everything must still be single-core.
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 4;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.machine.servicePort = 8080;
    cfg.backendPort = 9090;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.03;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.served, 100u);
    EXPECT_EQ(r.clientFailures, 0u);
    for (const Socket *s : bed.machine().kernel().allSockets()) {
        if (s->kind != SockKind::kConnection)
            continue;
        EXPECT_LE(s->touchedCount(), 1)
            << "rule-3 misclassification broke locality for socket "
            << s->id;
    }
    for (const auto &kv : r.locks)
        EXPECT_EQ(kv.second.contentions, 0u) << kv.first;
}

TEST(RfdRule3, RandomizedBitsPreserveLocality)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 4;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.machine.kernel.rfdRandomBits = true;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.03;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.served, 100u);
    for (const Socket *s : bed.machine().kernel().allSockets()) {
        if (s->kind == SockKind::kConnection) {
            EXPECT_LE(s->touchedCount(), 1);
        }
    }
}

TEST(AcceptMutex, SerializesAcceptsButStillServes)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 4;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.acceptMutex = true;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.04;

    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.served, 100u);
    EXPECT_EQ(r.clientFailures, 0u);
}

TEST(AcceptMutex, CostsThroughputOnBaseline)
{
    auto run_with = [](bool mutex) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 8;
        cfg.machine.kernel = KernelConfig::base2632();
        cfg.acceptMutex = mutex;
        cfg.concurrencyPerCore = 120;
        cfg.warmupSec = 0.02;
        cfg.measureSec = 0.05;
        return runExperiment(cfg).cps;
    };
    double with = run_with(true);
    double without = run_with(false);
    // The mutex serializes accept: it must not *help* at this scale.
    EXPECT_LE(with, without * 1.05);
}

TEST(PortBind, StockBaselineSerializesEphemeralPorts)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 8;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.concurrencyPerCore = 120;
    cfg.warmupSec = 0.02;
    cfg.measureSec = 0.05;
    ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.locks.count("portbind.lock"));
    EXPECT_GT(r.locks.at("portbind.lock").acquisitions, 100u);

    // Fastsocket's per-core port stripes never touch the global lock.
    cfg.machine.kernel = KernelConfig::fastsocket();
    ExperimentResult rf = runExperiment(cfg);
    EXPECT_EQ(rf.locks.at("portbind.lock").acquisitions, 0u);
}

TEST(ServicePorts, MachineCanServeArbitraryPort)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.servicePort = 8080;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 30;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.03;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.served, 50u);
    EXPECT_EQ(r.clientFailures, 0u);
}

TEST(KeepAlive, MultipleRequestsPerConnection)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.requestsPerConn = 8;
    cfg.concurrencyPerCore = 30;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.04;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_EQ(r.clientFailures, 0u);
    EXPECT_GT(r.rps, r.cps * 6.0)
        << "each connection should carry ~8 requests";
    // Establishment work amortizes: accepted conns << responses served.
    const KernelStats &ks = bed.machine().kernel().stats();
    EXPECT_LT(ks.acceptedConns, bed.app().served() / 4);
}

TEST(KeepAlive, ClientClosesFirstSoServerAvoidsTimeWait)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.requestsPerConn = 4;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.05;

    Testbed bed(cfg);
    bed.run();
    const KernelStats &ks = bed.machine().kernel().stats();
    EXPECT_GT(ks.socketsDestroyed, 50u);
    EXPECT_EQ(ks.timeWaitReaped, 0u)
        << "passive close must not leave server-side TIME_WAIT";
}

TEST(KeepAlive, LongLivedNarrowsTheKernelGap)
{
    // The section-1 claim, as a property: the fast/base requests-per-
    // second ratio shrinks when connections carry many requests.
    auto ratio = [](int reqs) {
        double rps[2];
        for (int k = 0; k < 2; ++k) {
            ExperimentConfig cfg;
            cfg.app = AppKind::kNginx;
            // 16 cores: the scale where the baseline is genuinely
            // contention-bound on connection metadata, which is what
            // keep-alive amortizes away.
            cfg.machine.cores = 16;
            cfg.machine.kernel = k == 0 ? KernelConfig::base2632()
                                        : KernelConfig::fastsocket();
            cfg.requestsPerConn = reqs;
            cfg.concurrencyPerCore = 80;
            cfg.warmupSec = 0.015;
            cfg.measureSec = 0.04;
            rps[k] = runExperiment(cfg).rps;
        }
        return rps[1] / rps[0];
    };
    double short_lived = ratio(1);
    double long_lived = ratio(32);
    EXPECT_LT(long_lived, short_lived * 0.8);
    EXPECT_LT(long_lived, 2.0)
        << "metadata contention should amortize away; the residual gap "
           "is per-packet cache bouncing, not TCB management";
}

} // anonymous namespace
} // namespace fsim
