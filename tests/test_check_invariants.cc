/**
 * @file
 * Unit tests for src/check: InvariantRegistry mechanics, the Fingerprint
 * hash, and the standard conservation checks run against real testbeds
 * (including one deliberately corrupted to prove violations are caught).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "check/fingerprint.hh"
#include "check/invariants.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

TEST(InvariantRegistry, RecordsViolationsWithTickAndDetail)
{
    InvariantRegistry reg;
    reg.add("always-ok", [](Tick, std::string &) { return true; });
    reg.add("always-bad", [](Tick, std::string &why) {
        why = "expected 1 but got 2";
        return false;
    });

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.runAll(123), 1u);
    EXPECT_EQ(reg.runAll(456), 1u);

    const InvariantReport &r = reg.report();
    EXPECT_EQ(r.checksRun, 4u);
    EXPECT_EQ(r.violationCount, 2u);
    ASSERT_EQ(r.violations.size(), 2u);
    EXPECT_EQ(r.violations[0].name, "always-bad");
    EXPECT_EQ(r.violations[0].detail, "expected 1 but got 2");
    EXPECT_EQ(r.violations[0].tick, 123u);
    EXPECT_EQ(r.violations[1].tick, 456u);
    EXPECT_FALSE(r.ok());

    reg.resetReport();
    EXPECT_TRUE(reg.report().ok());
    EXPECT_EQ(reg.report().checksRun, 0u);
}

TEST(InvariantRegistry, StoredViolationsAreCappedButAllCounted)
{
    InvariantRegistry reg;
    reg.add("bad", [](Tick, std::string &) { return false; });
    for (int i = 0; i < 100; ++i)
        reg.runAll(i);
    EXPECT_EQ(reg.report().violationCount, 100u);
    EXPECT_EQ(reg.report().violations.size(),
              InvariantRegistry::kMaxStored);
}

TEST(InvariantReport, MergeAddsCountsAndKeepsCap)
{
    InvariantRegistry a;
    a.add("a-bad", [](Tick, std::string &) { return false; });
    a.runAll(1);
    InvariantRegistry b;
    b.add("b-bad", [](Tick, std::string &) { return false; });
    b.add("b-ok", [](Tick, std::string &) { return true; });
    b.runAll(2);

    InvariantReport merged = a.report();
    merged.merge(b.report());
    EXPECT_EQ(merged.checksRun, 3u);
    EXPECT_EQ(merged.violationCount, 2u);
    ASSERT_EQ(merged.violations.size(), 2u);
    EXPECT_EQ(merged.violations[1].name, "b-bad");
}

TEST(InvariantReport, SummaryNamesTheFailedChecks)
{
    InvariantRegistry reg;
    reg.add("packet-conservation",
            [](Tick, std::string &) { return false; });
    reg.runAll(0);
    std::string s = reg.report().summary();
    EXPECT_NE(s.find("1 violation"), std::string::npos);
    EXPECT_NE(s.find("packet-conservation"), std::string::npos);
}

TEST(Fingerprint, SensitiveToValueAndOrder)
{
    Fingerprint a;
    a.mix(std::uint64_t{1});
    a.mix(std::uint64_t{2});
    Fingerprint b;
    b.mix(std::uint64_t{2});
    b.mix(std::uint64_t{1});
    Fingerprint c;
    c.mix(std::uint64_t{1});
    c.mix(std::uint64_t{2});
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(a.value(), c.value());

    Fingerprint d;
    d.mix(std::uint64_t{1});
    EXPECT_NE(a.value(), d.value());
}

/** Three deliveries: (tick, addresses, ports and flags, payload). */
constexpr std::uint64_t kDeliveries[3][4] = {
    {10'000, 0xac100001'0a000001ULL, 0x9c40'0050'02000000ULL, 0},
    {20'000, 0x0a000001'ac100001ULL, 0x0050'9c40'12000000ULL, 0},
    {30'000, 0xac100001'0a000001ULL, 0x9c40'0050'18000000ULL, 120},
};

std::uint64_t
foldDeliveries(const std::uint64_t (*d)[4], std::size_t n)
{
    Fingerprint f;
    for (std::size_t i = 0; i < n; ++i)
        f.mixDelivery(d[i][0], d[i][1], d[i][2], d[i][3]);
    return f.value();
}

TEST(Fingerprint, DeliveryFoldSeesEveryBitOfEveryWord)
{
    const std::uint64_t base = foldDeliveries(kDeliveries, 3);
    for (int word = 0; word < 4; ++word) {
        for (int bit = 0; bit < 64; ++bit) {
            std::uint64_t d[3][4];
            std::copy(&kDeliveries[0][0], &kDeliveries[0][0] + 12, &d[0][0]);
            d[1][word] ^= std::uint64_t{1} << bit;
            EXPECT_NE(foldDeliveries(d, 3), base)
                << "word " << word << " bit " << bit;
        }
    }
}

TEST(Fingerprint, DeliveryFoldSeesOrder)
{
    std::uint64_t d[3][4];
    std::copy(&kDeliveries[0][0], &kDeliveries[0][0] + 12, &d[0][0]);
    std::swap(d[0], d[1]);
    EXPECT_NE(foldDeliveries(d, 3), foldDeliveries(kDeliveries, 3));
    std::copy(&kDeliveries[0][0], &kDeliveries[0][0] + 12, &d[0][0]);
    std::swap(d[1], d[2]);
    EXPECT_NE(foldDeliveries(d, 3), foldDeliveries(kDeliveries, 3));
}

TEST(Fingerprint, DeliveryFoldIsPinned)
{
    // Every run fingerprint is built on this value: a change to the fold
    // re-pins every bench and corpus fingerprint, so it must be
    // deliberate.
    const std::uint64_t v = foldDeliveries(kDeliveries, 3);
    EXPECT_EQ(v, 0xde148ebe2020260aULL) << Fingerprint::hex(v);
}

TEST(Fingerprint, MixesDoublesAndRendersHex)
{
    Fingerprint a;
    a.mix(1.5);
    Fingerprint b;
    b.mix(1.25);
    EXPECT_NE(a.value(), b.value());

    EXPECT_EQ(Fingerprint::hex(0x1234abcdULL), "0x000000001234abcd");
    EXPECT_EQ(Fingerprint::hex(a.value()).size(), 18u);
}

TEST(StandardInvariants, HoldOnShortNginxRun)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    cfg.concurrencyPerCore = 50;
    cfg.checkLevel = CheckLevel::kPeriodic;
    cfg.checkIntervalSec = 0.002;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
    EXPECT_GT(r.invariants.checksRun, 6u) << "periodic passes expected";
    EXPECT_NE(r.fingerprint, 0u);
}

TEST(StandardInvariants, HoldOnHaproxyWithLoss)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    cfg.concurrencyPerCore = 50;
    cfg.lossRate = 0.02;
    cfg.clientTimeout = ticksFromMsec(50);
    cfg.checkLevel = CheckLevel::kPeriodic;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
}

TEST(StandardInvariants, CheckLevelOffRunsNothing)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 1;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.01;
    cfg.concurrencyPerCore = 20;
    cfg.checkLevel = CheckLevel::kOff;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_EQ(r.invariants.checksRun, 0u);
    EXPECT_NE(r.fingerprint, 0u) << "fingerprint is always computed";
}

TEST(StandardInvariants, CorruptedCounterIsDetected)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 1;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.01;
    cfg.concurrencyPerCore = 20;
    Testbed bed(cfg);
    bed.startLoad();
    bed.eventQueue().runUntil(ticksFromSeconds(0.01));

    // Sanity: the live system passes...
    EXPECT_EQ(bed.checks().runAll(bed.eventQueue().now()), 0u)
        << bed.checks().report().summary();

    // ...then fake a lost socket by bumping the created counter behind
    // the registry's back: socket-conservation must notice.
    const_cast<KernelStats &>(bed.machine().kernel().stats())
        .socketsCreated += 1;
    EXPECT_GE(bed.checks().runAll(bed.eventQueue().now()), 1u);
    bool found = false;
    for (const InvariantViolation &v : bed.checks().report().violations)
        if (v.name == "socket-conservation")
            found = true;
    EXPECT_TRUE(found) << bed.checks().report().summary();
}

TEST(QuiesceInvariants, BoundedRunLeaksNothing)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 25;
    cfg.maxConns = 300;
    Testbed bed(cfg);
    InvariantRegistry quiesce;
    registerQuiesceInvariants(quiesce, bed.machine(), bed.load());

    bed.startLoad();
    bed.eventQueue().runAll();   // bounded: drains to quiescence

    EXPECT_EQ(bed.load().inFlight(), 0u);
    EXPECT_EQ(bed.load().completed(), 300u);
    EXPECT_EQ(quiesce.runAll(bed.eventQueue().now()), 0u)
        << quiesce.report().summary();
    EXPECT_EQ(bed.checks().runAll(bed.eventQueue().now()), 0u)
        << bed.checks().report().summary();
}

} // anonymous namespace
} // namespace fsim
