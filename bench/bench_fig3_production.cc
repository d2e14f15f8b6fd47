/**
 * @file
 * Reproduces Figure 3 and the production evaluation of section 4.2.1:
 * two 8-core HAProxy servers receive the same diurnal request stream
 * (open loop); one runs the base kernel, one runs Fastsocket. For every
 * "hour" the bench prints each server's average / min / max per-core
 * CPU utilization (the paper's box plot), then applies the paper's
 * effective-capacity formula.
 *
 * Paper reference: at the 18:30 peak the base server averages 45.1%
 * utilization with cores spread 31.7%..57.7%, while the Fastsocket
 * server averages 34.3% spread 32.7%..37.6% — a 31.5% CPU-efficiency
 * gain and, via 1/maxUtil, a 53.5% effective-capacity gain.
 */

#include <vector>

#include "bench_common.hh"

namespace
{

/** Diurnal load curve: fraction of peak per hour 0..23 (WeiBo-like). */
const double kDiurnal[24] = {
    0.45, 0.35, 0.28, 0.24, 0.22, 0.25, 0.35, 0.50,
    0.62, 0.72, 0.80, 0.85, 0.88, 0.85, 0.82, 0.80,
    0.83, 0.88, 1.00, 0.97, 0.92, 0.83, 0.70, 0.55,
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Figure 3: production CPU utilization, 8-core HAProxy",
           "Open-loop diurnal traffic replayed against base-2.6.32 and "
           "Fastsocket servers.\nPaper: Fastsocket lowers and flattens "
           "per-core utilization; effective capacity +53.5%.");

    // Peak request rate chosen so the base server's hottest core sits
    // near the paper's ~58% at the evening peak.
    const double peak_rate = 45000.0;
    const double hour_sim = args.quick ? 0.05 : 0.12;   // seconds/hour

    Bench bench("fig3_production", args);
    std::vector<BenchRow<>> rows;
    for (const KernelUnderTest &srv : kBaseAndFast) {
        BenchRow<> row{srv.name, {}};
        row.cfg.app = AppKind::kHaproxy;
        row.cfg.machine.cores = 8;
        row.cfg.machine.kernel = srv.config;
        row.cfg.backendCount = 8;
        row.drive = [&](Testbed &bed, RowOutput<NoRead> &out) {
            bed.load().startOpenLoop(peak_rate * kDiurnal[0]);
            for (int hour = 0; hour < 24; ++hour) {
                bed.load().setOpenLoopRate(peak_rate * kDiurnal[hour]);
                // Short settle, then measure the hour window.
                bed.eventQueue().runUntil(bed.eventQueue().now() +
                                          ticksFromSeconds(hour_sim * 0.3));
                bed.markWindows();
                bed.eventQueue().runUntil(bed.eventQueue().now() +
                                          ticksFromSeconds(hour_sim));
                char label[32];
                std::snprintf(label, sizeof(label), "%s@%02d:00",
                              srv.name, hour);
                out.yield(bed.collect(), label);
            }
            bed.load().stopOpenLoop();
        };
        rows.push_back(std::move(row));
    }
    // Hour h of base is res[h], of Fastsocket res[24 + h].
    const auto res = runRows(bench, std::move(rows)).results;

    TextTable table;
    table.header({"hour", "base avg", "base min..max", "fast avg",
                  "fast min..max"});
    for (int hour = 0; hour < 24; ++hour) {
        const ExperimentResult &base = res[hour];
        const ExperimentResult &fast = res[24 + hour];
        char brange[32], frange[32];
        std::snprintf(brange, sizeof(brange), "%4.1f%%..%4.1f%%",
                      base.minUtil() * 100, base.maxUtil() * 100);
        std::snprintf(frange, sizeof(frange), "%4.1f%%..%4.1f%%",
                      fast.minUtil() * 100, fast.maxUtil() * 100);
        char label[8];
        std::snprintf(label, sizeof(label), "%02d:00", hour);
        table.row({label, formatPercent(base.avgUtil()), brange,
                   formatPercent(fast.avgUtil()), frange});
    }
    table.print();

    // Section 4.2.1 arithmetic at the evening peak (hour 18).
    int peak = 18;
    const ExperimentResult &base = res[peak];
    const ExperimentResult &fast = res[24 + peak];
    double base_max = base.maxUtil();
    double fast_max = fast.maxUtil();
    double capacity_gain =
        (1.0 / fast_max - 1.0 / base_max) / (1.0 / base_max);
    double cpu_gain = (base.avgUtil() - fast.avgUtil()) / fast.avgUtil();
    std::printf("\nAt the %02d:00 peak:\n", peak);
    std::printf("  base: avg %s, hottest core %s   "
                "(paper: 45.1%%, 57.7%%)\n",
                formatPercent(base.avgUtil()).c_str(),
                formatPercent(base_max).c_str());
    std::printf("  fast: avg %s, hottest core %s   "
                "(paper: 34.3%%, 37.6%%)\n",
                formatPercent(fast.avgUtil()).c_str(),
                formatPercent(fast_max).c_str());
    std::printf("  CPU efficiency gain:     %s   (paper: 31.5%%)\n",
                formatPercent(cpu_gain).c_str());
    std::printf("  effective capacity gain: %s   (paper: 53.5%%)\n",
                formatPercent(capacity_gain).c_str());
    return bench.finish();
}
