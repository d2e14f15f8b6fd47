/**
 * @file
 * Ablation: accept-queue backlog (somaxconn) under overload.
 *
 * Not a paper figure, but a design knob the simulation depends on: the
 * backlog bounds how far a burst can queue ahead of accept(). Too small
 * and the server resets connections under load spikes; large values
 * only add memory and latency. This run overloads a small Fastsocket
 * server and sweeps the backlog.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Ablation: accept-queue backlog under overload",
           "2-core Fastsocket nginx, concurrency far above capacity.");

    TextTable table;
    table.header({"backlog", "throughput", "overflows", "client failures",
                  "served"});

    BenchJsonReport json("ablation_backlog");
    for (std::size_t backlog : {16u, 64u, 256u, 1024u}) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 2;
        cfg.machine.kernel = KernelConfig::fastsocket();
        cfg.concurrencyPerCore = args.quick ? 600 : 1500;   // overload
        cfg.warmupSec = args.quick ? 0.02 : 0.04;
        cfg.measureSec = args.quick ? 0.05 : 0.1;
        cfg.listenBacklog = backlog;
        args.apply(cfg);
        Testbed bed(cfg);
        ExperimentResult r = bed.run();
        json.addRow("backlog-" + std::to_string(backlog), cfg, r);
        const KernelStats &ks = bed.machine().kernel().stats();
        table.row({std::to_string(backlog), kcps(r.cps),
                   formatCount(static_cast<double>(ks.acceptOverflows)),
                   formatCount(static_cast<double>(r.clientFailures)),
                   formatCount(static_cast<double>(r.served))});
    }
    table.print();
    std::printf("\nExpected: small backlogs shed load with RSTs; larger "
                "ones absorb the closed-loop burst with no failures.\n");
    finishJson(args, json);
    return 0;
}
