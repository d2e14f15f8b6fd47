/**
 * @file
 * Scenario fuzzer tests: generation validity, serialize/parse
 * round-trips, rejection of invalid reproducers, shrinking against
 * synthetic predicates, and a real end-to-end fuzzed run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario.hh"

#ifndef FSIM_CORPUS_DIR
#error "build must define FSIM_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace fsim
{
namespace
{

TEST(Scenario, RandomScenariosAreValidByConstruction)
{
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        Scenario s = randomScenario(rng);
        EXPECT_GE(s.cores, 1);
        EXPECT_LE(s.cores, 8);
        EXPECT_GT(s.maxConns, 0u);
        EXPECT_GT(s.concurrencyPerCore, 0);
        EXPECT_GE(s.requestsPerConn, 1);
        EXPECT_LE(s.lossRate, 0.05);
        if (s.lossRate > 0.0) {
            EXPECT_GT(s.clientTimeoutSec, 0.0)
                << "loss without a client timeout cannot drain";
        }
        if (s.localEstablished) {
            EXPECT_TRUE(s.localListen && s.rfd)
                << "feature lattice: E requires L and R";
        }
        // Round-trip through the reproducer format.
        Scenario back;
        std::string err;
        ASSERT_TRUE(parseScenario(serializeScenario(s), back, err))
            << err;
        EXPECT_EQ(back.seed, s.seed);
        EXPECT_EQ(back.cores, s.cores);
        EXPECT_EQ(back.kernel, s.kernel);
        EXPECT_EQ(back.maxConns, s.maxConns);
        EXPECT_EQ(back.listenBacklog, s.listenBacklog);
        EXPECT_EQ(back.uma, s.uma);
        EXPECT_DOUBLE_EQ(back.lossRate, s.lossRate);
    }
}

TEST(Scenario, GeneratorCoversTheSpace)
{
    Rng rng(5);
    bool sawHaproxy = false, sawLoss = false, sawBacklog = false;
    bool sawCustom = false, sawUma = false;
    for (int i = 0; i < 100; ++i) {
        Scenario s = randomScenario(rng);
        sawHaproxy |= s.app == AppKind::kHaproxy;
        sawLoss |= s.lossRate > 0.0;
        sawBacklog |= s.listenBacklog != 0;
        sawCustom |= s.kernel == "custom";
        sawUma |= s.uma;
    }
    EXPECT_TRUE(sawHaproxy && sawLoss && sawBacklog && sawCustom &&
                sawUma);
}

TEST(Scenario, ParseIgnoresCommentsAndRejectsUnknownKeys)
{
    Scenario s;
    std::string err;
    ASSERT_TRUE(parseScenario("# comment\n\nseed = 5\ncores=3\n"
                              "  # indented comment\nmaxConns = 10\n",
                              s, err))
        << err;
    EXPECT_EQ(s.seed, 5u);
    EXPECT_EQ(s.cores, 3);

    // A misspelt knob must not silently drop out of the replay.
    EXPECT_FALSE(parseScenario("seed = 5\nfutureKnob = 1\n", s, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("futureKnob"), std::string::npos) << err;
    EXPECT_FALSE(parseScenario("clientTimeoutSec = 0.1\n"
                               "lossrate = 0.02\n",
                               s, err));
    EXPECT_NE(err.find("lossrate"), std::string::npos) << err;
}

TEST(Scenario, ParseRejectsInvalidInput)
{
    Scenario s;
    std::string err;
    EXPECT_FALSE(parseScenario("not a key value line\n", s, err));
    EXPECT_FALSE(parseScenario("cores = banana\n", s, err));
    EXPECT_FALSE(parseScenario("cores = 0\n", s, err));
    EXPECT_FALSE(parseScenario("kernel = windows\n", s, err));
    EXPECT_FALSE(parseScenario("maxConns = 0\n", s, err));
    EXPECT_FALSE(
        parseScenario("kernel = custom\nlocalEstablished = 1\n", s, err))
        << "E without L and R must be rejected";
    EXPECT_FALSE(parseScenario("lossRate = 0.1\n", s, err))
        << "loss without a timeout must be rejected";
    EXPECT_FALSE(err.empty());

    // Values must be whole tokens, in range, and from the key's list.
    EXPECT_FALSE(parseScenario("cores = 2x\n", s, err));
    EXPECT_NE(err.find("cores"), std::string::npos) << err;
    EXPECT_FALSE(parseScenario("maxConns = -1\n", s, err));
    EXPECT_FALSE(parseScenario("app = haprxy\n", s, err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_FALSE(parseScenario("uma = 2\n", s, err));
    EXPECT_FALSE(parseScenario("lossRate = nan\n", s, err));
}

TEST(Scenario, ToConfigAppliesEveryKnob)
{
    Scenario s;
    s.cores = 6;
    s.kernel = "custom";
    s.fastVfs = true;
    s.localListen = true;
    s.rfd = false;
    s.app = AppKind::kHaproxy;
    s.maxConns = 777;
    s.listenBacklog = 32;
    s.uma = true;
    s.acceptMutex = true;
    s.traceEnabled = false;
    ExperimentConfig cfg = s.toConfig();
    EXPECT_EQ(cfg.machine.cores, 6);
    EXPECT_TRUE(cfg.machine.kernel.fastVfs);
    EXPECT_TRUE(cfg.machine.kernel.localListen);
    EXPECT_FALSE(cfg.machine.kernel.rfd);
    EXPECT_EQ(cfg.machine.kernel.flavor, KernelFlavor::kBase2632);
    EXPECT_EQ(cfg.maxConns, 777u);
    EXPECT_EQ(cfg.listenBacklog, 32u);
    EXPECT_TRUE(cfg.acceptMutex);
    EXPECT_FALSE(cfg.machine.traceEnabled);
    EXPECT_EQ(cfg.machine.costs.numaNodeSize, 0) << "uma costs";
    EXPECT_EQ(cfg.checkLevel, CheckLevel::kPeriodic);

    s.kernel = "fastsocket";
    EXPECT_EQ(s.toConfig().machine.kernel.flavor,
              KernelFlavor::kFastsocket);
}

TEST(Scenario, ShrinkConvergesOnSyntheticPredicate)
{
    // "Fails whenever cores >= 3": the shrinker must walk everything
    // else to its floor and stop cores right at the boundary.
    Scenario big;
    big.cores = 8;
    big.kernel = "fastsocket";
    big.maxConns = 2000;
    big.concurrencyPerCore = 100;
    big.lossRate = 0.03;
    big.clientTimeoutSec = 0.1;
    big.requestsPerConn = 4;
    big.listenBacklog = 512;
    big.acceptMutex = true;
    big.uma = true;
    auto fails = [](const Scenario &s) { return s.cores >= 3; };
    Scenario small = shrinkScenario(big, fails, 500);
    EXPECT_EQ(small.cores, 3);
    EXPECT_EQ(small.maxConns, 50u);
    EXPECT_EQ(small.lossRate, 0.0);
    EXPECT_EQ(small.requestsPerConn, 1);
    EXPECT_EQ(small.listenBacklog, 0u);
    EXPECT_FALSE(small.acceptMutex);
    EXPECT_FALSE(small.uma);
    EXPECT_EQ(small.kernel, "base2632");
    EXPECT_TRUE(fails(small));
}

TEST(Scenario, ShrinkRespectsBudget)
{
    Scenario big;
    big.cores = 8;
    big.maxConns = 2000;
    int calls = 0;
    auto fails = [&calls](const Scenario &) {
        ++calls;
        return true;
    };
    shrinkScenario(big, fails, 7);
    EXPECT_LE(calls, 7);
}

TEST(Scenario, ShrinkKeepsOriginalWhenNothingSmallerFails)
{
    Scenario s;   // defaults are already near the floor
    s.cores = 2;
    s.maxConns = 60;
    auto fails = [&s](const Scenario &c) {
        // Only the exact original fails.
        return c.cores == s.cores && c.maxConns == s.maxConns;
    };
    Scenario out = shrinkScenario(s, fails, 100);
    EXPECT_EQ(out.cores, 2);
    EXPECT_EQ(out.maxConns, 60u);
}

TEST(Scenario, RunScenarioEndToEnd)
{
    Scenario s;
    s.seed = 123;
    s.cores = 2;
    s.maxConns = 200;
    s.concurrencyPerCore = 20;
    s.kernel = "fastsocket";
    ScenarioResult r = runScenario(s);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_TRUE(r.drained);
    EXPECT_TRUE(r.deterministic);
    EXPECT_EQ(r.fingerprint, r.fingerprint2);
    EXPECT_GT(r.invariants.checksRun, 0u);
}

TEST(Scenario, FleetKnobsRoundTripThroughSerialization)
{
    Scenario s;
    s.fleetMachines = 3;
    s.fleetBalancers = 2;
    s.fleetPolicy = "rr";
    s.clientTimeoutSec = 0.05;
    s.faultPlan = "rolling_restart@0.003-0.004:drain_ms=4,down_ms=2";

    Scenario back;
    std::string err;
    ASSERT_TRUE(parseScenario(serializeScenario(s), back, err)) << err;
    EXPECT_EQ(back.fleetMachines, 3);
    EXPECT_EQ(back.fleetBalancers, 2);
    EXPECT_EQ(back.fleetPolicy, "rr");
    EXPECT_EQ(back.faultPlan, s.faultPlan);

    // The fleet block is elided entirely on single-machine scenarios.
    Scenario plain;
    EXPECT_EQ(serializeScenario(plain).find("fleet"), std::string::npos);
}

TEST(Scenario, ParseRejectsInvalidFleetCombos)
{
    Scenario out;
    std::string err;
    // Fleet event kinds demand the fleet tier...
    EXPECT_FALSE(parseScenario(
        "clientTimeoutSec = 0.05\n"
        "faultPlan = machine_crash@0.01-0.02:target=0,mode=rst\n",
        out, err));
    // ...and in-range targets (the orchestrator asserts the range).
    EXPECT_FALSE(parseScenario(
        "fleetMachines = 2\n"
        "clientTimeoutSec = 0.05\n"
        "faultPlan = machine_crash@0.01-0.02:target=5,mode=rst\n",
        out, err));
    EXPECT_FALSE(parseScenario(
        "fleetMachines = 2\n"
        "fleetBalancers = 1\n"
        "clientTimeoutSec = 0.05\n"
        "faultPlan = lb_crash@0.01-0.02:target=1\n",
        out, err));
    // A group index too large for an int names nothing either.
    EXPECT_FALSE(parseScenario(
        "fleetMachines = 2\n"
        "clientTimeoutSec = 0.05\n"
        "faultPlan = net_partition@0.01-0.02:a=lb0,b=m99999999999\n",
        out, err));
    EXPECT_FALSE(parseScenario("fleetMachines = 99\n", out, err));
    EXPECT_FALSE(parseScenario("fleetPolicy = lru\n", out, err));
    // The same knobs in valid combination parse fine.
    EXPECT_TRUE(parseScenario(
        "fleetMachines = 2\n"
        "fleetBalancers = 2\n"
        "clientTimeoutSec = 0.05\n"
        "faultPlan = lb_crash@0.01-0.02:target=1\n",
        out, err)) << err;
}

TEST(Scenario, ShrinkDropsFleetTierAndItsEventsFirst)
{
    Scenario big;
    big.fleetMachines = 4;
    big.fleetBalancers = 2;
    big.fleetPolicy = "rr";
    big.clientTimeoutSec = 0.05;
    big.faultPlan = "machine_crash@0.01-0.02:target=3,mode=blackhole;"
                    "loss_burst@0.01-0.02:rate=0.2";

    // A predicate independent of the fleet: the shrinker must leave the
    // tier behind and keep the scenario valid at every step.
    auto fails = [](const Scenario &c) {
        std::string err;
        Scenario parsed;
        EXPECT_TRUE(parseScenario(serializeScenario(c), parsed, err))
            << err;
        return c.lossRate == 0.0;   // always true here
    };
    Scenario out = shrinkScenario(big, fails, 200);
    EXPECT_EQ(out.fleetMachines, 0);
    // The fleet-only event went with the tier; nothing invalid remains.
    EXPECT_EQ(out.faultPlan.find("machine_crash"), std::string::npos);
}

TEST(Scenario, RunFleetScenarioEndToEnd)
{
    Scenario s;
    s.seed = 77;
    s.cores = 2;
    s.maxConns = 300;
    s.concurrencyPerCore = 20;
    s.kernel = "fastsocket";
    s.fleetMachines = 2;
    s.fleetBalancers = 2;
    s.clientTimeoutSec = 0.05;
    s.clientRtoMsec = 5.0;
    s.faultPlan = "machine_crash@0.002-0.008:target=1,mode=rst";
    ScenarioResult r = runScenario(s);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_TRUE(r.drained);
    EXPECT_TRUE(r.deterministic);
    EXPECT_GT(r.invariants.checksRun, 0u);
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

TEST(Scenario, ReproducerTextIsPinned)
{
    // The .scn text is a committed format: every corpus file after a
    // parse, 500 generator draws and every single-step shrink candidate
    // of those draws must serialize byte-identically to the pinned
    // history. Candidate order is the shrinker's search heuristic, not
    // part of the format, so each draw's candidates are hashed sorted.
    std::uint64_t h = 0xcbf29ce484222325ull;

    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(FSIM_CORPUS_DIR))
        if (entry.path().extension() == ".scn")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const std::string &path : files) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        Scenario s;
        std::string err;
        ASSERT_TRUE(parseScenario(text.str(), s, err)) << path << ": "
                                                       << err;
        h = fnv1a(h, serializeScenario(s));
    }

    Rng rng(20160402);
    int candidates = 0;
    for (int i = 0; i < 500; ++i) {
        Scenario s = randomScenario(rng);
        h = fnv1a(h, serializeScenario(s));
        std::vector<std::string> texts;
        shrinkScenario(
            s,
            [&texts](const Scenario &c) {
                texts.push_back(serializeScenario(c));
                return false;
            },
            1000);
        std::sort(texts.begin(), texts.end());
        for (const std::string &t : texts) {
            // Every candidate is itself a valid reproducer.
            Scenario back;
            std::string err;
            ASSERT_TRUE(parseScenario(t, back, err)) << err << "\n" << t;
            EXPECT_EQ(serializeScenario(back), t);
            h = fnv1a(h, t);
        }
        candidates += static_cast<int>(texts.size());
    }
    EXPECT_EQ(candidates, 4322);
    EXPECT_EQ(h, 0x33eef14afba271a1ull) << "actual 0x" << std::hex << h;
}

} // anonymous namespace
} // namespace fsim
