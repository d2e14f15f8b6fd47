/**
 * @file
 * Extension bench: long-lived versus short-lived connections.
 *
 * Section 1 of the paper: "For long-lived connections, the metadata
 * management for new connections is not frequent enough to cause
 * significant contentions. Thus we do not observe scalability issues of
 * the TCP stack in these cases." This bench verifies that claim in the
 * simulator: as requests-per-connection grows (HTTP keep-alive), the
 * establishment/teardown machinery amortizes away and the gap between
 * the baseline kernel and Fastsocket collapses.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Extension: request/connection ratio (nginx, 16 cores)",
           "Paper section 1: long-lived connections do not suffer the "
           "short-lived scalability problem.\nMetric is requests/s; "
           "fast/base should shrink toward ~1x as keep-alive grows.");

    BenchJsonReport json("longlived");
    const KernelUnderTest kernels[2] = {kKernels[0], kKernels[2]};
    const int reqCounts[] = {1, 4, 16, 64};
    std::vector<BenchRow> rows;
    for (int reqs : reqCounts)
        for (const KernelUnderTest &k : kernels) {
            ExperimentConfig cfg;
            cfg.app = AppKind::kNginx;
            cfg.machine.cores = 16;
            cfg.machine.kernel = k.config;
            cfg.requestsPerConn = reqs;
            cfg.concurrencyPerCore = args.quick ? 100 : 250;
            cfg.warmupSec = args.quick ? 0.02 : 0.04;
            cfg.measureSec = args.quick ? 0.05 : 0.12;
            rows.push_back({std::string(k.name) + "-reqs-" +
                                std::to_string(reqs),
                            cfg});
        }
    const std::vector<ExperimentResult> res =
        runRows(args, json, std::move(rows));

    TextTable table;
    table.header({"reqs/conn", "base-2.6.32 rps", "fastsocket rps",
                  "fast/base"});
    for (std::size_t i = 0; i < std::size(reqCounts); ++i) {
        const double base = res[2 * i].rps;
        const double fast = res[2 * i + 1].rps;
        char ratio[16];
        std::snprintf(ratio, sizeof(ratio), "%.2fx",
                      base > 0 ? fast / base : 0.0);
        table.row({std::to_string(reqCounts[i]), kcps(base), kcps(fast),
                   ratio});
    }
    table.print();
    finishJson(args, json);
    return 0;
}
