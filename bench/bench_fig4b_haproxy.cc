/**
 * @file
 * Reproduces Figure 4(b): HAProxy connections-per-second throughput
 * versus core count. HAProxy differs from Nginx in that it makes
 * frequent *active* connections to backends, which is what Receive Flow
 * Deliver accelerates.
 *
 * Paper reference (Kcps at 24 cores): fastsocket ~441, linux-3.13 ~302
 * (fastsocket +139K), base-2.6.32 ~71 (fastsocket +370K); single-core
 * throughputs are very close among all three kernels.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Figure 4(b): HAProxy throughput vs cores",
           "http_load, concurrency 500 x cores, 64B backend page, "
           "keep-alive off.\nPaper shape: fastsocket > 3.13 > base; "
           "single-core runs nearly tie; gaps widen with cores.");

    Bench bench("fig4b_haproxy", args);
    std::vector<BenchRow<>> rows;
    for (int cores : kCoreSweep)
        for (const KernelUnderTest &k : kKernels) {
            ExperimentConfig cfg =
                fig4Config(args, AppKind::kHaproxy, cores, k.config);
            cfg.backendCount = 16;
            rows.push_back({std::string(k.name) + "@" +
                                std::to_string(cores),
                            cfg});
        }
    const auto res = runRows(bench, std::move(rows)).results;

    TextTable table;
    table.header({"cores", "base-2.6.32", "linux-3.13", "fastsocket",
                  "fast-313", "fast-base"});
    auto cps = [&](std::size_t c, int k) { return res[3 * c + k].cps; };
    for (std::size_t c = 0; c < std::size(kCoreSweep); ++c)
        table.row({std::to_string(kCoreSweep[c]), kcps(cps(c, 0)),
                   kcps(cps(c, 1)), kcps(cps(c, 2)),
                   kcps(cps(c, 2) - cps(c, 1)),
                   kcps(cps(c, 2) - cps(c, 0))});
    table.print();
    std::printf("\nPaper at 24 cores: fastsocket beats 3.13 by 139K cps "
                "and base by 370K cps.\n");
    return bench.finish();
}
