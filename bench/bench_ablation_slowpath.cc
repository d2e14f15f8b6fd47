/**
 * @file
 * Ablation: the Local Listen Table robustness slow path (section 3.2.1).
 *
 * Kills k of the 8 Fastsocket worker processes and measures how the
 * surviving workers absorb connections whose SYNs land on orphaned
 * cores: throughput, slow-path accept share, and that *no* connection
 * is reset — which is exactly what a naive per-core listen-table
 * partition (without the global fallback) would get wrong.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Ablation: Local Listen Table slow path under process crashes",
           "Paper 3.2.1: a missing local listen socket must fall back to "
           "the global listen socket, not reset the client.");

    Bench bench("ablation_slowpath", args);
    const int killedCounts[] = {0, 1, 2, 4};
    std::vector<BenchRow<Testbed, KernelStats>> rows;
    for (int killed : killedCounts) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 8;
        cfg.machine.kernel = KernelConfig::fastsocket();
        cfg.concurrencyPerCore = args.quick ? 100 : 250;
        cfg.warmupSec = args.quick ? 0.02 : 0.04;
        cfg.measureSec = args.quick ? 0.05 : 0.1;
        BenchRow<Testbed, KernelStats> row{
            "killed-" + std::to_string(killed), cfg};
        row.drive = [killed](Testbed &bed, RowOutput<KernelStats> &out) {
            for (int p = 0; p < killed; ++p)
                bed.machine().kernel().killProcess(p);
            // Each exit is a task on its worker's core: let them close
            // their listen fds before the first SYN arrives.
            bed.eventQueue().runUntil(bed.eventQueue().now());
            out.yield(bed.run());
        };
        row.read = [](Testbed &bed) { return bed.machine().kernel().stats(); };
        rows.push_back(std::move(row));
    }
    const auto done = runRows(bench, std::move(rows));

    TextTable table;
    table.header({"killed procs", "throughput", "slow-path accepts",
                  "slow share", "RSTs", "client failures"});
    for (std::size_t i = 0; i < std::size(killedCounts); ++i) {
        const ExperimentResult &r = done.results[i];
        const KernelStats &ks = done.reads[i];
        double slow_share =
            ks.acceptedConns
                ? static_cast<double>(ks.slowPathAccepts) /
                      static_cast<double>(ks.acceptedConns)
                : 0.0;
        table.row({std::to_string(killedCounts[i]), kcps(r.cps),
                   formatCount(static_cast<double>(ks.slowPathAccepts)),
                   formatPercent(slow_share),
                   formatCount(static_cast<double>(ks.rstSent)),
                   formatCount(static_cast<double>(r.clientFailures))});
    }
    table.print();
    std::printf("\nExpected: slow share ~= killed/8, zero RSTs from "
                "orphaned cores, graceful throughput degradation.\n");
    return bench.finish();
}
