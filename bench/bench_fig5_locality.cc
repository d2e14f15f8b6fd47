/**
 * @file
 * Reproduces Figure 5(a) and 5(b): throughput, L3 cache miss rate and
 * local-packet proportion for the five NIC-steering configurations the
 * paper evaluates on a 16-core machine (Fastsocket-aware VFS and the
 * Local Listen Table always enabled; Local Established Table follows
 * RFD, since it requires complete locality):
 *
 *   RSS, RFD+RSS, FDir_ATR, RFD+FDir_ATR, RFD+FDir_Perfect
 *
 * Paper reference (16 cores):
 *   throughput:  261K, 277K (+6.1%), ~291K, ~293K (+0.8%), 300K (+2.4%)
 *   L3 miss:     ~13%, ~7% (-6pp),   ~7%,   ~7%,           ~5.3% (-1.8pp)
 *   local pkts:  6.2%, 6.2%,         76.5%, 76.5%,         100%
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Figure 5: RFD x NIC steering (HAProxy, 16 cores)",
           "Local packet = active-connection packet the NIC already "
           "delivered to the owning core.\nPaper: RSS 6.2% local, "
           "FDir_ATR 76.5%, RFD+FDir_Perfect 100%; RFD+RSS gains +6.1% "
           "throughput and -6pp L3 misses over RSS.");

    const int cores = 16;

    struct Config
    {
        const char *name;
        bool rfd;
        bool atr;
        bool perfect;
    };
    const Config configs[] = {
        {"RSS", false, false, false},
        {"RFD+RSS", true, false, false},
        {"FDir_ATR", false, true, false},
        {"RFD+FDir_ATR", true, true, false},
        {"RFD+FDir_Perfect", true, false, true},
        // FDir_Perfect without RFD is omitted: without the encoded
        // source ports it cannot be programmed correctly (paper 4.2.4).
    };

    Bench bench("fig5_locality", args);
    std::vector<BenchRow<>> rows;
    for (const Config &c : configs) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kHaproxy;
        cfg.machine.cores = cores;
        KernelConfig kc = KernelConfig::base2632();
        kc.fastVfs = true;
        kc.localListen = true;
        kc.rfd = c.rfd;
        kc.localEstablished = c.rfd;   // E requires complete locality
        cfg.machine.kernel = kc;
        cfg.machine.nic.fdirAtr = c.atr;
        if (c.perfect) {
            cfg.machine.nic.fdirPerfect = true;
            cfg.machine.nic.perfectPortMask =
                ReceiveFlowDeliver::hashMask(cores);
        }
        cfg.concurrencyPerCore = args.quick ? 150 : 400;
        cfg.warmupSec = args.quick ? 0.02 : 0.06;
        cfg.measureSec = args.quick ? 0.05 : 0.15;
        rows.push_back({c.name, cfg});
    }
    const auto res = runRows(bench, std::move(rows)).results;

    TextTable table;
    table.header({"config", "throughput", "L3 miss", "local pkts",
                  "sw-steered"});
    for (std::size_t i = 0; i < res.size(); ++i) {
        const ExperimentResult &r = res[i];
        table.row({configs[i].name, kcps(r.cps),
                   formatPercent(r.l3MissRate),
                   formatPercent(r.localPktProportion),
                   formatCount(static_cast<double>(r.steeredPackets))});
    }
    table.print();
    return bench.finish();
}
