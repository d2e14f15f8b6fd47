/**
 * @file
 * Observability bench: where does every simulated CPU cycle go?
 *
 * Runs the Figure 4(a) 24-core nginx endpoint on base-2.6.32 and
 * Fastsocket and prints, per kernel, the per-core phase breakdown table
 * (app / syscall / softirq / lock-spin / cache-stall / idle) and the
 * heaviest folded stacks, i.e. exactly the perf-style evidence behind
 * the paper's section 2 analysis: on the baseline the listen-socket and
 * VFS locks burn a large share of every core's cycles, while Fastsocket
 * returns those cycles to application and protocol work.
 *
 * Paper reference (section 2.1): at 24 cores the baseline spends 24.2%
 * of per-core CPU cycles in the accept path's contended locks.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Phase breakdown: per-core cycle attribution (nginx, 24 cores)",
           "Simulated perf: every busy cycle is attributed to a phase; "
           "idle is the derived remainder.\nExpected: lock-spin dominates "
           "the kernel share on base-2.6.32 and vanishes on fastsocket.");

    Bench bench("phase_breakdown", args);
    std::vector<BenchRow<>> rows;
    for (const KernelUnderTest &k : kBaseAndFast) {
        ExperimentConfig cfg =
            fig4Config(args, AppKind::kNginx, 24, k.config);
        cfg.statWindows = 5;
        rows.push_back({k.name, cfg});
    }
    const auto res = runRows(bench, std::move(rows)).results;

    for (int i = 0; i < 2; ++i) {
        const KernelUnderTest &k = kBaseAndFast[i];
        const ExperimentResult &r = res[i];
        std::printf("--- %s: %s cps ---\n", k.name, kcps(r.cps).c_str());
        phaseBreakdownTable(r.phases).print();

        std::printf("\ntop folded stacks (flamegraph.pl format):\n");
        std::size_t shown = 0;
        for (const auto &fs : r.foldedStacks) {
            if (shown++ == 6)
                break;
            std::printf("  %-40s %llu\n", fs.first.c_str(),
                        static_cast<unsigned long long>(fs.second));
        }
        double spin = r.phases.total(Phase::kLockSpin);
        double busy = 1.0 - r.phases.total(Phase::kIdle);
        std::printf("\nlock-spin share: %s of all cycles, %s of busy "
                    "cycles\n",
                    formatPercent(spin).c_str(),
                    formatPercent(busy > 0 ? spin / busy : 0.0).c_str());

        // SYN-path health per sub-window: all-zero on a clean run;
        // --faults=syn_flood@... makes retransmits/cookies/RSTs show up.
        std::printf("\nper-window SYN deltas (completed | syn-retx "
                    "cookies-sent cookies-ok rst):\n");
        for (std::size_t i = 0; i < r.lockWindows.size(); ++i) {
            const LockWindow &lw = r.lockWindows[i];
            std::printf("  w%zu: %8llu | %6llu %6llu %6llu %6llu\n", i,
                        static_cast<unsigned long long>(lw.completed),
                        static_cast<unsigned long long>(lw.synRetransmits),
                        static_cast<unsigned long long>(lw.synCookiesSent),
                        static_cast<unsigned long long>(
                            lw.synCookiesValidated),
                        static_cast<unsigned long long>(
                            lw.acceptQueueRsts));
        }
        std::printf("\n");
    }

    return bench.finish();
}
