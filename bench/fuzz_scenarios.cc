/**
 * @file
 * Property-based scenario fuzzer (src/check/scenario.hh driver).
 *
 * Generates random, valid-by-construction experiment scenarios from a
 * seed and runs each with every invariant armed (periodic conservation
 * checks, quiesce leak checks, and a same-seed determinism double-run).
 * On a violation the scenario is greedily shrunk and written as a
 * reproducer file that --replay accepts — commit such files under
 * tests/corpus/ to turn them into regression tests.
 *
 * Usage:
 *   fuzz_scenarios [--runs=N] [--seed=S] [--out=DIR]   fuzz N scenarios
 *   fuzz_scenarios --replay=FILE                       rerun a reproducer
 *
 * Not on runRows: it drives src/check's scenario runner.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "check/scenario.hh"

namespace
{

int
replay(const std::string &path)
{
    using namespace fsim;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Scenario s;
    std::string err;
    if (!parseScenario(text.str(), s, err)) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     err.c_str());
        return 2;
    }
    ScenarioResult r = runScenario(s);
    std::printf("%s: %s\n", path.c_str(), r.summary().c_str());
    return r.ok() ? 0 : 1;
}

bool
writeReproducer(const std::string &path, const fsim::Scenario &s)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << serializeScenario(s);
    return static_cast<bool>(out);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;

    // Shared flags (--seed) come from BenchArgs; fuzzer-specific flags
    // are consumed from its leftover-argument list.
    BenchArgs args = BenchArgs::parse(
        argc, argv, {"--runs=", "--out=", "--replay="});
    int runs = 50;
    std::uint64_t seed = args.seed != 0 ? args.seed : 1;
    std::string outDir = ".";
    std::string replayPath;
    std::string v;
    args.extraCount("--runs=", runs);
    if (args.extraValue("--out=", v))
        outDir = v;
    if (args.extraValue("--replay=", v))
        replayPath = v;

    if (!replayPath.empty())
        return replay(replayPath);

    std::printf("fuzzing %d scenarios from seed %llu "
                "(invariants: periodic + quiesce + determinism)\n",
                runs, static_cast<unsigned long long>(seed));

    Rng rng(seed);
    int failures = 0;
    for (int i = 0; i < runs; ++i) {
        Scenario s = randomScenario(rng);
        ScenarioResult r = runScenario(s);
        char fleet[32] = "";
        if (s.fleetMachines > 0)
            std::snprintf(fleet, sizeof(fleet), " fleet=%dx%d/%s",
                          s.fleetMachines, s.fleetBalancers,
                          s.fleetPolicy.c_str());
        std::printf("  [%3d/%d] cores=%d app=%s kernel=%-10s "
                    "conns=%llu loss=%.3f%s : %s\n",
                    i + 1, runs, s.cores,
                    s.app == AppKind::kHaproxy ? "haproxy" : "nginx",
                    s.kernel.c_str(),
                    static_cast<unsigned long long>(s.maxConns),
                    s.lossRate, fleet, r.summary().c_str());
        std::fflush(stdout);
        if (r.ok())
            continue;

        ++failures;
        std::printf("  shrinking...\n");
        Scenario small = shrinkScenario(
            s, [](const Scenario &c) { return !runScenario(c).ok(); },
            /*budget=*/40);
        std::string path = outDir + "/fuzz_repro_" +
                           std::to_string(seed) + "_" +
                           std::to_string(i) + ".scn";
        if (writeReproducer(path, small))
            std::printf("  reproducer written: %s\n", path.c_str());
        else
            std::fprintf(stderr, "  error: could not write %s\n",
                         path.c_str());
        std::printf("  shrunk scenario:\n%s",
                    serializeScenario(small).c_str());
    }

    std::printf("%d/%d scenarios ok, %d violation(s)\n", runs - failures,
                runs, failures);
    return failures ? 1 : 0;
}
