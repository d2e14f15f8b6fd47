/**
 * @file
 * Ablation: how much of the baseline collapse is NUMA?
 *
 * The paper's testbed is two 12-core sockets; DESIGN.md attributes the
 * base kernel's bend past 12 cores partly to cross-socket line
 * transfers. This bench re-runs the Figure 4(a) endpoints on a
 * hypothetical single-socket (UMA) machine with identical per-op costs:
 * if the attribution is right, UMA flattens the 12->24 decline for the
 * baseline while barely moving Fastsocket (whose lines never travel).
 */

#include "bench_common.hh"
#include "harness/calibration.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Ablation: NUMA vs UMA at the Figure 4(a) endpoints",
           "Same cycle costs; only the cross-socket transfer penalty "
           "differs.");

    BenchJsonReport json("ablation_numa");
    const KernelUnderTest kernels[2] = {kKernels[0], kKernels[2]};
    const int coreCounts[2] = {12, 24};
    std::vector<BenchRow> rows;
    for (const KernelUnderTest &k : kernels)
        for (int cores : coreCounts)
            for (int u = 0; u < 2; ++u) {
                ExperimentConfig cfg;
                cfg.app = AppKind::kNginx;
                cfg.machine.cores = cores;
                cfg.machine.kernel = k.config;
                cfg.machine.costs = u == 0 ? calibratedCosts()
                                           : umaCosts();
                cfg.concurrencyPerCore = args.quick ? 100 : 300;
                cfg.warmupSec = args.quick ? 0.02 : 0.04;
                cfg.measureSec = args.quick ? 0.04 : 0.1;
                rows.push_back({std::string(k.name) + "@" +
                                    std::to_string(cores) +
                                    (u == 0 ? "-numa" : "-uma"),
                                cfg});
            }
    const std::vector<ExperimentResult> res =
        runRows(args, json, std::move(rows));

    TextTable table;
    table.header({"kernel", "cores", "NUMA (2x12)", "UMA (1x24)",
                  "UMA gain"});
    std::size_t i = 0;
    for (const KernelUnderTest &k : kernels)
        for (int cores : coreCounts) {
            const double numa = res[i++].cps;
            const double uma = res[i++].cps;
            char gain[16];
            std::snprintf(gain, sizeof(gain), "%+.0f%%",
                          100.0 * (uma - numa) / numa);
            table.row({k.name, std::to_string(cores), kcps(numa),
                       kcps(uma), gain});
        }
    table.print();
    std::printf("\nExpected: UMA helps the shared-everything baseline "
                "mostly at 24 cores (cross-socket traffic is its tax)\n"
                "and helps Fastsocket least — partitioned state does not "
                "cross sockets in the first place.\n");
    finishJson(args, json);
    return 0;
}
