/**
 * @file
 * Ablation: lock-granularity refinement versus table-level partition.
 *
 * Section 2.1 argues that refining the established table's per-bucket
 * lock granularity "is just an optimization but not a thorough
 * solution". This bench sweeps the global table's bucket count and
 * compares against the Local Established Table: contention shrinks with
 * more buckets but only the per-core partition reaches zero.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Ablation: ehash bucket granularity vs table-level partition",
           "HAProxy, 24 cores, V+L+R enabled; only the established-table "
           "strategy varies.");

    auto row = [&](const std::string &label, int buckets, bool local) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kHaproxy;
        cfg.machine.cores = 24;
        KernelConfig kc = KernelConfig::base2632();
        kc.fastVfs = true;
        kc.localListen = true;
        kc.rfd = true;
        kc.localEstablished = local;
        kc.ehashBuckets = buckets;
        cfg.machine.kernel = kc;
        cfg.concurrencyPerCore = args.quick ? 100 : 250;
        cfg.warmupSec = args.quick ? 0.02 : 0.04;
        cfg.measureSec = args.quick ? 0.05 : 0.12;
        return BenchRow{label, cfg};
    };

    BenchJsonReport json("ablation_ehash");
    const int bucketCounts[] = {64, 1024, 16384};
    std::vector<BenchRow> rows;
    for (int buckets : bucketCounts)
        rows.push_back(
            row("global-" + std::to_string(buckets), buckets, false));
    rows.push_back(row("per-core-local", 16384, true));
    const std::vector<ExperimentResult> res =
        runRows(args, json, std::move(rows));

    TextTable table;
    table.header({"established table", "ehash contentions", "throughput"});
    for (std::size_t i = 0; i < res.size(); ++i)
        table.row({i < std::size(bucketCounts)
                       ? "global, " + std::to_string(bucketCounts[i]) +
                             " buckets"
                       : "per-core local tables",
                   formatCount(static_cast<double>(
                       res[i].locks.at("ehash.lock").contentions)),
                   kcps(res[i].cps)});
    table.print();
    std::printf("\nExpected: finer buckets reduce but never eliminate "
                "contention; the per-core partition is exactly zero\n"
                "(Table 1's E column), independent of core count.\n");
    finishJson(args, json);
    return 0;
}
