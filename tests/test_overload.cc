/**
 * @file
 * Overload-control tests: admission conservation under pressure, SYN
 * ingress gate accounting, health-probe exemption, same-seed
 * determinism with the subsystem armed, and the proxy's half-open
 * backend readmission when the backend is still down at probe time.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace fsim
{
namespace
{

/** Parse @p spec into @p cfg or fail the test with the parser error. */
void
armOverload(ExperimentConfig &cfg, const std::string &spec)
{
    std::string err;
    ASSERT_TRUE(parseOverloadSpec(spec, cfg.machine.overload, err))
        << err;
}

TEST(Overload, SpecParseRejectsNonFiniteAndOversizedValues)
{
    const std::string good =
        "budget=256,gate=96,deadline_ms=5,cap=64,high=0.3,"
        "critical=0.7,low=0.15";
    OverloadConfig cfg;
    std::string err;
    ASSERT_TRUE(parseOverloadSpec(good, cfg, err)) << err;
    // The printed form rebuilds the same configuration, field for field:
    // a deadline keeps its fraction down to the tick (whole-us printing
    // turned 1.5 us into 2 and 0.4 us into 0, which disables the shed)
    // and a ratio keeps every digit it was given.
    for (const char *spec :
         {good.c_str(), "deadline_us=1.5", "deadline_ms=0.0004",
          "deadline_us=0.2996", "high=0.1234567,critical=0.9,low=0.05"}) {
        OverloadConfig c;
        ASSERT_TRUE(parseOverloadSpec(spec, c, err)) << spec << ": " << err;
        const std::string text = serializeOverloadSpec(c);
        OverloadConfig back;
        ASSERT_TRUE(parseOverloadSpec(text, back, err)) << text << ": "
                                                        << err;
        EXPECT_EQ(back.enabled, c.enabled) << text;
        EXPECT_EQ(back.softirqBudget, c.softirqBudget) << text;
        EXPECT_EQ(back.synGate, c.synGate) << text;
        EXPECT_EQ(back.acceptHighWatermark, c.acceptHighWatermark) << text;
        EXPECT_EQ(back.acceptCriticalWatermark, c.acceptCriticalWatermark)
            << text;
        EXPECT_EQ(back.acceptLowWatermark, c.acceptLowWatermark) << text;
        EXPECT_EQ(back.queueDeadline, c.queueDeadline) << text;
        EXPECT_EQ(back.workerCap, c.workerCap) << text;
        EXPECT_EQ(back.brownout, c.brownout) << text;
        EXPECT_EQ(back.brownoutBytes, c.brownoutBytes) << text;
        EXPECT_EQ(back.brownoutCostDivisor, c.brownoutCostDivisor) << text;
        EXPECT_EQ(back.healthRequestBytes, c.healthRequestBytes) << text;
    }

    // Whole-number keys refuse a fraction instead of truncating it.
    for (const char *bad : {"high=nan", "low=nan", "critical=nan",
                            "cap=inf", "budget=-inf", "cap=1e12",
                            "gate=12x", "high=0.5.1", "cap=1.7",
                            "budget=2.5"}) {
        OverloadConfig c;
        err.clear();
        EXPECT_FALSE(parseOverloadSpec(bad, c, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Overload, AdmissionCountersConserveUnderPressure)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.concurrencyPerCore = 120;   // well past 2 cores' capacity
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.05;
    armOverload(cfg,
                "budget=128,gate=16,deadline_ms=5,cap=64,"
                "high=0.3,critical=0.7,low=0.15");

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    AdmissionController *adm = bed.admission();
    ASSERT_NE(adm, nullptr);

    // Every offered connection got exactly one verdict...
    EXPECT_EQ(adm->offered(),
              adm->admitted() + adm->degraded() + adm->shed());
    // ...and every admitted one is either finished or still in flight.
    EXPECT_EQ(adm->admitted() + adm->degraded(),
              adm->released() + adm->inflightTotal());
    EXPECT_EQ(adm->releaseUnderflows(), 0u);
    // The shed reasons decompose the total.
    EXPECT_EQ(adm->shed(), adm->shedDeadline() + adm->shedWorkerCap() +
                               adm->shedPressure());
    EXPECT_TRUE(r.overload.enabled);
    EXPECT_EQ(r.invariants.violationCount, 0u);
    // The closed loop still made real progress while shedding.
    EXPECT_GT(r.served, 100u);
}

TEST(Overload, SynGateDropsAreAccountedOnlyWhenArmed)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.concurrencyPerCore = 150;
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.04;

    // Gate off: the counter must stay zero (also an invariant).
    armOverload(cfg, "budget=0,deadline_ms=0,cap=0,high=0.5");
    {
        Testbed bed(cfg);
        ExperimentResult r = bed.run();
        EXPECT_EQ(r.overload.synGateDropped, 0u);
        EXPECT_EQ(r.invariants.violationCount, 0u);
    }

    // A tiny gate under the same offered load must visibly drop SYNs,
    // and what the accept path sees can never exceed what it admits.
    armOverload(cfg, "gate=4,high=0.5");
    {
        Testbed bed(cfg);
        ExperimentResult r = bed.run();
        const KernelStats &ks = bed.machine().kernel().stats();
        EXPECT_GT(r.overload.synGateDropped, 0u);
        EXPECT_EQ(r.overload.synGateDropped, ks.synGateDropped);
        EXPECT_EQ(r.invariants.violationCount, 0u);
        EXPECT_GT(r.served, 100u);
    }
}

TEST(Overload, HealthProbesBypassEveryShedLayer)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.concurrencyPerCore = 150;
    cfg.clientHealthEvery = 8;
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.05;
    // Aggressive shedding everywhere a normal flow can be refused.
    armOverload(cfg,
                "budget=64,gate=8,deadline_ms=2,cap=32,brownout=1,"
                "health_bytes=32,high=0.05,critical=0.5,low=0.02");

    Testbed bed(cfg);
    bed.run();
    AdmissionController *adm = bed.admission();
    ASSERT_NE(adm, nullptr);
    ASSERT_GT(adm->healthOffered(), 0u);
    // The priority class is never shed at the admission gate...
    EXPECT_EQ(adm->healthAdmitted(), adm->healthOffered());
    // ...and the kernel-level gates spare its marked packets too, so
    // probes only fail if their flow genuinely broke.
    EXPECT_EQ(bed.load().healthFailed(), 0u);
    EXPECT_GT(bed.load().healthCompleted(), 0u);
}

TEST(Overload, SameSeedSameFingerprintWithOverloadArmed)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 100;
    cfg.clientHealthEvery = 16;
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.04;
    armOverload(cfg,
                "budget=128,gate=16,deadline_ms=5,cap=64,brownout=1,"
                "health_bytes=32,high=0.1,critical=0.5,low=0.05");

    ExperimentResult a = runExperiment(cfg);
    ExperimentResult b = runExperiment(cfg);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_GT(a.overload.offered, 0u);
    EXPECT_EQ(a.overload.offered, b.overload.offered);
    EXPECT_EQ(a.overload.shed, b.overload.shed);
    EXPECT_EQ(a.overload.synGateDropped, b.overload.synGateDropped);
}

/**
 * The ISSUE's half-open scenario: a backend that is still down when its
 * ejection period expires. The circuit breaker readmits it half-open
 * (one probe's worth of trust: consecFails = threshold - 1), the probe
 * fails, and the very next failure re-ejects it — no second readmission
 * sneaks in between, and the backend ends the run ejected.
 */
TEST(Overload, ProxyHalfOpenReadmissionWithBackendStillDown)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 30;
    cfg.backendCount = 2;
    cfg.backendTimeout = ticksFromMsec(2);   // ejection sit-out = 8ms
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.08;   // several eject -> probe -> re-eject cycles
    std::string err;
    // Backend 0 is dead for the entire run, so every half-open probe
    // that readmits it is guaranteed to fail.
    ASSERT_TRUE(parseFaultPlan("backend_down@0-10:target=0", cfg.faults,
                               err))
        << err;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    auto *px = dynamic_cast<Proxy *>(&bed.app());
    ASSERT_NE(px, nullptr);

    // The breaker probed at least once and re-ejected on the failure.
    EXPECT_GE(px->backendReadmissions(), 1u);
    EXPECT_GE(px->backendEjections(), 2u);
    // One ejection per readmission plus the initial one; if the run
    // happens to end inside a half-open window the counts match
    // exactly. Were a probe double-readmitted, readmissions would
    // outnumber ejections.
    EXPECT_EQ(px->backendEjections() - px->backendReadmissions(),
              px->backendEjected(0) ? 1u : 0u);
    EXPECT_LE(px->backendReadmissions(), px->backendEjections());
    // The healthy backend never trips its breaker...
    EXPECT_FALSE(px->backendEjected(1));
    // ...and carries the load: the fleet keeps completing sessions.
    EXPECT_GT(r.served, 200u);
    EXPECT_GT(bed.load().completed(), bed.load().failed());
}

} // anonymous namespace
} // namespace fsim
