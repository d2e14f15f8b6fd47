/**
 * @file
 * Reproduces Figure 4(a): Nginx connections-per-second throughput versus
 * core count for base 2.6.32, Linux 3.13 (SO_REUSEPORT) and Fastsocket.
 *
 * Paper reference series (read off the plot / text, in Kcps):
 *   cores:        1    4    8    12   16   20   24
 *   base-2.6.32:  24   90   230  290  260  220  178
 *   linux-3.13:   24   95   180  230  255  270  283
 *   fastsocket:   24   95   190  280  360  420  475
 * Headline claims: Fastsocket reaches 475K cps at 24 cores (20.0x its
 * single-core run); base peaks near 12 cores then drops; 3.13 plateaus.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Figure 4(a): Nginx throughput vs cores",
           "http_load, concurrency 500 x cores, 64B cached page, "
           "keep-alive off.\nPaper shape: fastsocket ~20x at 24 cores; "
           "base peaks ~12 cores then collapses; 3.13 lands in between.");

    Bench bench("fig4a_nginx", args);
    std::vector<BenchRow<>> rows;
    for (int cores : kCoreSweep)
        for (const KernelUnderTest &k : kKernels)
            rows.push_back({std::string(k.name) + "@" +
                                std::to_string(cores),
                            fig4Config(args, AppKind::kNginx, cores,
                                       k.config)});
    const auto res = runRows(bench, std::move(rows)).results;
    // Row (sweep point c, kernel k) is res[3 * c + k].
    auto cps = [&](std::size_t c, int k) { return res[3 * c + k].cps; };

    TextTable table;
    table.header({"cores", "base-2.6.32", "linux-3.13", "fastsocket",
                  "fast/base"});
    for (std::size_t c = 0; c < std::size(kCoreSweep); ++c) {
        char ratio[16];
        std::snprintf(ratio, sizeof(ratio), "%.2fx", cps(c, 2) / cps(c, 0));
        table.row({std::to_string(kCoreSweep[c]), kcps(cps(c, 0)),
                   kcps(cps(c, 1)), kcps(cps(c, 2)), ratio});
    }
    table.print();

    std::printf("\nSpeedup at 24 cores vs each kernel's single core:\n");
    const std::size_t last = std::size(kCoreSweep) - 1;
    for (int k = 0; k < 3; ++k)
        std::printf("  %-12s %5.1fx   (paper: base 7.5x, 3.13 ~12x, "
                    "fastsocket 20.0x)\n",
                    kKernels[k].name, cps(last, k) / cps(0, k));
    return bench.finish();
}
