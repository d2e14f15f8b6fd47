/**
 * @file
 * Ablation: FDir ATR sampling rate and signature-table size.
 *
 * The paper calls ATR "a best-effort solution instead of a complete
 * solution" because the mapping is sampled and the hardware table is
 * finite (section 2.2). This bench quantifies both limits: local-packet
 * proportion as a function of the sample rate and of the table size.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Ablation: FDir ATR sample rate and table size",
           "HAProxy on 16 cores, Fastsocket V+L (no RFD), FDir ATR. "
           "Paper measures 76.5% local packets with default ATR.");

    Bench bench("ablation_atr", args);
    const int rates[] = {1, 4, 8, 20, 64};
    const std::uint32_t sizes[] = {256u, 1024u, 4096u, 16384u};
    std::vector<BenchRow<>> rows;
    auto add = [&](int sample_rate, std::uint32_t table_size) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kHaproxy;
        cfg.machine.cores = 16;
        KernelConfig kc = KernelConfig::base2632();
        kc.fastVfs = true;
        kc.localListen = true;
        cfg.machine.kernel = kc;
        cfg.machine.nic.fdirAtr = true;
        cfg.machine.nic.atrSampleRate = sample_rate;
        cfg.machine.nic.atrTableSize = table_size;
        cfg.concurrencyPerCore = args.quick ? 100 : 250;
        cfg.warmupSec = args.quick ? 0.02 : 0.04;
        cfg.measureSec = args.quick ? 0.04 : 0.1;
        rows.push_back({"rate-1/" + std::to_string(sample_rate) +
                            "-table-" + std::to_string(table_size),
                        cfg});
    };
    for (int rate : rates)
        add(rate, 8192);
    for (std::uint32_t size : sizes)
        add(8, size);
    const auto res = runRows(bench, std::move(rows)).results;

    TextTable rate_table;
    rate_table.header({"sample rate", "local pkts", "throughput",
                       "L3 miss"});
    for (std::size_t i = 0; i < std::size(rates); ++i) {
        const ExperimentResult &r = res[i];
        rate_table.row({"1/" + std::to_string(rates[i]),
                        formatPercent(r.localPktProportion), kcps(r.cps),
                        formatPercent(r.l3MissRate)});
    }
    rate_table.print();

    std::printf("\n");
    TextTable size_table;
    size_table.header({"table size", "local pkts", "throughput"});
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const ExperimentResult &r = res[std::size(rates) + i];
        size_table.row({std::to_string(sizes[i]),
                        formatPercent(r.localPktProportion),
                        kcps(r.cps)});
    }
    size_table.print();
    std::printf("\nExpected: denser sampling and bigger tables push the "
                "local share up, but never to 100%% — only\nRFD's "
                "deterministic port encoding (Perfect-Filtering) "
                "achieves complete locality.\n");
    return bench.finish();
}
