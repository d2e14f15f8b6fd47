/**
 * @file
 * Tests for the fault-injection subsystem (src/fault): plan grammar,
 * content-hash wire fault fates, end-to-end armed testbeds (SYN flood
 * with cookies, backend outage with proxy failover) and the determinism
 * guarantee that an armed plan keeps same-seed runs bit-identical.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

// ---------------------------------------------------------------- plan

TEST(FaultPlan, ParsesEveryKindAndRoundTrips)
{
    const std::string text =
        "loss_burst@0.01-0.02:rate=0.25;"
        "reorder@0.01-0.02:rate=0.1,jitter=300;"
        "duplicate@0.01-0.02:rate=0.05;"
        "syn_flood@0.02-0.03:rate=100000;"
        "backend_slow@0.01-0.03:factor=6,target=1;"
        "backend_down@0.01-0.03:target=0;"
        "atr_shrink@0.01-0.03:size=64;"
        "machine_crash@0.03-0.04:target=2,mode=blackhole;"
        "rolling_restart@0.04-0.06:drain_ms=4,down_ms=2;"
        "lb_crash@0.05-0.06:target=1;"
        "machine_degrade@0.06-0.08:"
        "target=1,factor=2.5,rate=0.08,jitter=500,flap_ms=4;"
        "net_partition@0.07-0.09:a=lb0,b=m1;"
        "seed=42";
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(text, plan, err)) << err;
    ASSERT_EQ(plan.events.size(), 12u);
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_TRUE(plan.has(FaultKind::kSynFlood));
    EXPECT_TRUE(plan.has(FaultKind::kAtrShrink));
    EXPECT_EQ(plan.events[0].kind, FaultKind::kLossBurst);
    EXPECT_DOUBLE_EQ(plan.events[0].rate, 0.25);
    EXPECT_DOUBLE_EQ(plan.events[1].jitterUsec, 300.0);
    EXPECT_EQ(plan.events[4].target, 1);
    EXPECT_EQ(plan.events[6].tableSize, 64u);
    EXPECT_EQ(plan.events[7].mode, FaultEvent::CrashMode::kBlackhole);
    EXPECT_DOUBLE_EQ(plan.events[8].drainMsec, 4.0);
    EXPECT_DOUBLE_EQ(plan.events[8].downMsec, 2.0);
    EXPECT_EQ(plan.events[9].target, 1);
    EXPECT_DOUBLE_EQ(plan.events[10].factor, 2.5);
    EXPECT_DOUBLE_EQ(plan.events[10].rate, 0.08);
    EXPECT_DOUBLE_EQ(plan.events[10].jitterUsec, 500.0);
    EXPECT_DOUBLE_EQ(plan.events[10].flapMsec, 4.0);
    EXPECT_EQ(plan.events[11].partA, "lb0");
    EXPECT_EQ(plan.events[11].partB, "m1");

    // The printed form is pinned: it travels in JSON reports and
    // reproducer lines. Each kind prints exactly its own parameters, in
    // a fixed order, with 17 significant digits.
    EXPECT_EQ(serializeFaultPlan(plan),
              "loss_burst@0.01-0.02:rate=0.25;"
              "reorder@0.01-0.02:rate=0.10000000000000001,jitter=300;"
              "duplicate@0.01-0.02:rate=0.050000000000000003;"
              "syn_flood@0.02-0.029999999999999999:rate=100000;"
              "backend_slow@0.01-0.029999999999999999:factor=6,target=1;"
              "backend_down@0.01-0.029999999999999999:target=0;"
              "atr_shrink@0.01-0.029999999999999999:size=64;"
              "machine_crash@0.029999999999999999-0.040000000000000001:"
              "target=2,mode=blackhole;"
              "rolling_restart@0.040000000000000001-0.059999999999999998:"
              "drain_ms=4,down_ms=2;"
              "lb_crash@0.050000000000000003-0.059999999999999998:"
              "target=1;"
              "machine_degrade@0.059999999999999998-0.080000000000000002:"
              "target=1,factor=2.5,rate=0.080000000000000002,jitter=500,"
              "flap_ms=4;"
              "net_partition@0.070000000000000007-0.089999999999999997:"
              "a=lb0,b=m1;"
              "seed=42");

    // serialize -> parse is the identity on the event list.
    FaultPlan again;
    ASSERT_TRUE(parseFaultPlan(serializeFaultPlan(plan), again, err))
        << err;
    ASSERT_EQ(again.events.size(), plan.events.size());
    EXPECT_EQ(again.seed, plan.seed);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(again.events[i].kind, plan.events[i].kind) << i;
        EXPECT_DOUBLE_EQ(again.events[i].startSec,
                         plan.events[i].startSec) << i;
        EXPECT_DOUBLE_EQ(again.events[i].endSec, plan.events[i].endSec)
            << i;
        EXPECT_DOUBLE_EQ(again.events[i].rate, plan.events[i].rate) << i;
        EXPECT_EQ(again.events[i].target, plan.events[i].target) << i;
        EXPECT_DOUBLE_EQ(again.events[i].factor,
                         plan.events[i].factor) << i;
        EXPECT_DOUBLE_EQ(again.events[i].jitterUsec,
                         plan.events[i].jitterUsec) << i;
        EXPECT_DOUBLE_EQ(again.events[i].flapMsec,
                         plan.events[i].flapMsec) << i;
        EXPECT_DOUBLE_EQ(again.events[i].drainMsec,
                         plan.events[i].drainMsec) << i;
        EXPECT_DOUBLE_EQ(again.events[i].downMsec,
                         plan.events[i].downMsec) << i;
        EXPECT_EQ(again.events[i].mode, plan.events[i].mode) << i;
        EXPECT_EQ(again.events[i].partA, plan.events[i].partA) << i;
        EXPECT_EQ(again.events[i].partB, plan.events[i].partB) << i;
    }
}

TEST(FaultPlan, EmptyTextIsEmptyPlan)
{
    FaultPlan plan;
    std::string err;
    EXPECT_TRUE(parseFaultPlan("", plan, err));
    EXPECT_TRUE(plan.empty());
    EXPECT_TRUE(parseFaultPlan("  ;  ", plan, err));
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(serializeFaultPlan(plan), "");
}

TEST(FaultPlan, UnknownKindErrorListsValidKinds)
{
    FaultPlan plan;
    std::string err;
    ASSERT_FALSE(parseFaultPlan("meteor_strike@0-1:rate=0.5", plan, err));
    for (const char *kind :
         {"loss_burst", "reorder", "duplicate", "syn_flood",
          "backend_slow", "backend_down", "atr_shrink",
          "machine_crash", "rolling_restart", "lb_crash",
          "machine_degrade", "net_partition"})
        EXPECT_NE(err.find(kind), std::string::npos) << err;
}

TEST(FaultPlan, RejectsMalformedEvents)
{
    FaultPlan plan;
    std::string err;
    // Missing window.
    EXPECT_FALSE(parseFaultPlan("loss_burst:rate=0.5", plan, err));
    // Backwards window.
    EXPECT_FALSE(parseFaultPlan("loss_burst@0.2-0.1:rate=0.5", plan, err));
    // Probability out of range.
    EXPECT_FALSE(parseFaultPlan("loss_burst@0-1:rate=1.5", plan, err));
    EXPECT_FALSE(parseFaultPlan("loss_burst@0-1", plan, err));
    // Unknown parameter.
    EXPECT_FALSE(parseFaultPlan("loss_burst@0-1:rate=0.5,frob=1", plan,
                                err));
    EXPECT_NE(err.find("frob"), std::string::npos);
    // A parameter of another kind is refused too (it would be dropped
    // when the plan is printed), and the error lists the ones this kind
    // takes.
    EXPECT_FALSE(parseFaultPlan("syn_flood@0-1:rate=100,size=100", plan,
                                err));
    EXPECT_NE(err.find("'size'"), std::string::npos) << err;
    EXPECT_NE(err.find("(valid: rate)"), std::string::npos) << err;
    EXPECT_FALSE(parseFaultPlan("loss_burst@0-1:rate=0.5,target=3", plan,
                                err));
    EXPECT_NE(err.find("'target'"), std::string::npos) << err;
    EXPECT_NE(err.find("(valid: rate)"), std::string::npos) << err;
    EXPECT_FALSE(parseFaultPlan("machine_crash@0-1:target=1,rate=0.5",
                                plan, err));
    EXPECT_NE(err.find("(valid: target, mode)"), std::string::npos) << err;
    // Flood needs a rate; slowdowns must actually slow down.
    EXPECT_FALSE(parseFaultPlan("syn_flood@0-1", plan, err));
    EXPECT_FALSE(parseFaultPlan("backend_slow@0-1:factor=0.5", plan, err));
    // ATR clamp must be a power of two.
    EXPECT_FALSE(parseFaultPlan("atr_shrink@0-1:size=100", plan, err));
    // Degrades must name a machine, keep loss a valid probability,
    // actually slow something down, and never go negative.
    EXPECT_FALSE(parseFaultPlan("machine_degrade@0-1:factor=2", plan,
                                err));
    EXPECT_FALSE(parseFaultPlan(
        "machine_degrade@0-1:target=0,factor=0.5", plan, err));
    EXPECT_FALSE(parseFaultPlan(
        "machine_degrade@0-1:target=0,rate=1.0", plan, err));
    EXPECT_FALSE(parseFaultPlan(
        "machine_degrade@0-1:target=0,factor=1,rate=0,jitter=0", plan,
        err));
    EXPECT_NE(err.find("no-op"), std::string::npos) << err;
    EXPECT_FALSE(parseFaultPlan(
        "machine_degrade@0-1:target=0,flap_ms=-1", plan, err));
    // Partition groups must be known tokens and must differ.
    EXPECT_FALSE(parseFaultPlan("net_partition@0-1:a=lb0,b=lb0", plan,
                                err));
    EXPECT_FALSE(parseFaultPlan("net_partition@0-1:a=tower7,b=ms",
                                plan, err));
    EXPECT_NE(err.find("tower7"), std::string::npos) << err;
}

// ---------------------------------------------------------------- wire

struct WireCounters
{
    std::uint64_t delivered, lost, duplicated;
};

/** Blast @p n packets through a fresh wire armed with @p w; all inside
 *  the window. @return the fate counters. */
WireCounters
blast(const Wire::FaultWindow &w, std::uint64_t seed, int n,
      std::vector<Packet> *rx = nullptr)
{
    EventQueue eq;
    Wire wire(eq, ticksFromUsec(10));
    wire.setFaultSeed(seed);
    wire.addFaultWindow(w);
    wire.attachRange(1, 1, [rx](const Packet &p) {
        if (rx)
            rx->push_back(p);
    });
    for (int i = 0; i < n; ++i) {
        Packet p;
        p.tuple = FiveTuple{2, 1, static_cast<Port>(1024 + i), 80};
        p.flags = kAck | kPsh;
        p.payload = 100 + i;
        p.txSeq = static_cast<std::uint64_t>(i);
        wire.transmit(p, w.start + 1 + i);
    }
    eq.runAll();
    EXPECT_EQ(wire.transmitted() + wire.duplicated(),
              wire.delivered() + wire.lost() + wire.dropped() +
                  wire.inFlight())
        << "wire conservation";
    EXPECT_EQ(wire.inFlight(), 0u);
    return {wire.delivered(), wire.lost(), wire.duplicated()};
}

TEST(WireFaults, LossFatesAreContentHashesNotSequence)
{
    Wire::FaultWindow w;
    w.start = ticksFromUsec(100);
    w.end = ticksFromSeconds(1.0);
    w.lossRate = 0.3;

    WireCounters a = blast(w, 7, 500);
    EXPECT_GT(a.lost, 0u);
    EXPECT_GT(a.delivered, 0u);
    // Same packets, same seed: identical fates (determinism).
    WireCounters b = blast(w, 7, 500);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.lost, b.lost);
    // A different fault seed draws different fates.
    WireCounters c = blast(w, 8, 500);
    EXPECT_NE(a.lost, c.lost);
}

TEST(WireFaults, LossOnlyInsideTheWindow)
{
    Wire::FaultWindow w;
    w.start = ticksFromUsec(100);
    w.end = ticksFromUsec(200);
    w.lossRate = 0.9;

    EventQueue eq;
    Wire wire(eq, ticksFromUsec(10));
    wire.setFaultSeed(7);
    wire.addFaultWindow(w);
    wire.attachRange(1, 1, [](const Packet &) {});
    for (int i = 0; i < 100; ++i) {
        Packet p;
        p.tuple = FiveTuple{2, 1, static_cast<Port>(1024 + i), 80};
        p.txSeq = static_cast<std::uint64_t>(i);
        wire.transmit(p, w.end + 1 + i);   // all after the window closes
    }
    eq.runAll();
    EXPECT_EQ(wire.lost(), 0u);
    EXPECT_EQ(wire.delivered(), 100u);
}

TEST(WireFaults, DuplicateWindowDeliversExtraCopies)
{
    Wire::FaultWindow w;
    w.start = 0;
    w.end = ticksFromSeconds(1.0);
    w.dupRate = 0.5;

    std::vector<Packet> rx;
    WireCounters c = blast(w, 7, 200, &rx);
    EXPECT_GT(c.duplicated, 0u);
    EXPECT_EQ(c.delivered, 200u + c.duplicated);
    EXPECT_EQ(rx.size(), c.delivered);
}

TEST(WireFaults, ReorderDelaysButDeliversEverything)
{
    Wire::FaultWindow w;
    w.start = 0;
    w.end = ticksFromSeconds(1.0);
    w.reorderRate = 0.5;
    w.reorderJitter = ticksFromUsec(500);

    WireCounters c = blast(w, 7, 200);
    EXPECT_EQ(c.delivered, 200u);
    EXPECT_EQ(c.lost, 0u);
}

// ---------------------------------------------------------- end to end

ExperimentConfig
smallConfig(AppKind app)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 50;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.03;
    cfg.checkLevel = CheckLevel::kPeriodic;
    cfg.clientTimeout = ticksFromSeconds(0.05);
    return cfg;
}

void
setPlan(ExperimentConfig &cfg, const std::string &text)
{
    std::string err;
    ASSERT_TRUE(parseFaultPlan(text, cfg.faults, err)) << err;
}

TEST(FaultEndToEnd, LossBurstRecoversViaClientRetransmission)
{
    ExperimentConfig cfg = smallConfig(AppKind::kNginx);
    setPlan(cfg, "loss_burst@0.01-0.02:rate=0.3");
    cfg.clientRtoBase = ticksFromUsec(3000);

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.served, 0u);
    EXPECT_GT(bed.wire().lost(), 0u);
    EXPECT_GT(bed.load().synRetransmits() +
                  bed.load().requestRetransmits(), 0u);
    EXPECT_EQ(r.invariants.violationCount, 0u)
        << r.invariants.summary();
}

TEST(FaultEndToEnd, ArmedPlanKeepsSameSeedRunsIdentical)
{
    auto fingerprint = [] {
        ExperimentConfig cfg = smallConfig(AppKind::kNginx);
        setPlan(cfg,
                "loss_burst@0.01-0.02:rate=0.3;"
                "reorder@0.015-0.025:rate=0.2;"
                "duplicate@0.01-0.02:rate=0.1");
        cfg.clientRtoBase = ticksFromUsec(3000);
        Testbed bed(cfg);
        ExperimentResult r = bed.run();
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
        return r.fingerprint;
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(FaultEndToEnd, SynFloodWithCookiesKeepsServing)
{
    ExperimentConfig cfg = smallConfig(AppKind::kNginx);
    setPlan(cfg, "syn_flood@0.01-0.02:rate=100000");
    cfg.machine.kernel.synCookies = true;
    cfg.machine.kernel.synBacklog = 64;
    cfg.machine.kernel.synRcvdJiffies = 300;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    const KernelStats &ks = bed.machine().kernel().stats();
    ASSERT_NE(bed.faults(), nullptr);
    ASSERT_NE(bed.faults()->flood(), nullptr);
    EXPECT_GT(bed.faults()->flood()->synsSent(), 0u);
    EXPECT_GT(ks.synCookiesSent, 0u) << "flood must trip cookie mode";
    EXPECT_GT(ks.synCookiesValidated, 0u)
        << "legit clients establish through cookies";
    EXPECT_GT(r.served, 0u) << "goodput must not collapse to zero";
    EXPECT_EQ(r.invariants.violationCount, 0u)
        << r.invariants.summary();
}

TEST(FaultEndToEnd, SynFloodWithoutCookiesStarvesAcceptance)
{
    ExperimentConfig cfg = smallConfig(AppKind::kNginx);
    setPlan(cfg, "syn_flood@0.01-0.02:rate=100000");
    cfg.machine.kernel.synBacklog = 64;   // cookies off: queue fills
    cfg.machine.kernel.synRcvdJiffies = 300;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    (void)r;
    EXPECT_GT(bed.machine().kernel().stats().synDropped, 0u);
    EXPECT_EQ(bed.machine().kernel().stats().synCookiesSent, 0u);
}

TEST(FaultEndToEnd, BackendOutageIsRiddenOutByProxyFailover)
{
    ExperimentConfig cfg = smallConfig(AppKind::kHaproxy);
    setPlan(cfg, "backend_down@0.008-0.02:target=0");
    cfg.backendTimeout = ticksFromUsec(2000);

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    ASSERT_NE(bed.backends(), nullptr);
    EXPECT_GT(bed.backends()->outageDrops(), 0u)
        << "outage window must actually swallow traffic";
    EXPECT_GT(r.served, 0u)
        << "retry+ejection must keep the service up";
    EXPECT_EQ(r.invariants.violationCount, 0u)
        << r.invariants.summary();
}

TEST(FaultEndToEnd, BackendEventsIgnoredWithoutBackends)
{
    ExperimentConfig cfg = smallConfig(AppKind::kNginx);
    setPlan(cfg, "backend_down@0.008-0.02:target=0");

    Testbed bed(cfg);
    bed.run();
    ASSERT_NE(bed.faults(), nullptr);
    EXPECT_EQ(bed.faults()->ignoredEvents(), 1);
}

} // anonymous namespace
} // namespace fsim
