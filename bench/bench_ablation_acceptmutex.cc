/**
 * @file
 * Ablation: the nginx accept mutex.
 *
 * Pre-reuseport nginx serializes accept() through an application-level
 * mutex to dodge thundering-herd wakeups on the shared listen socket.
 * The paper disables it for the Fastsocket runs (4.2.2) because the
 * Local Listen Table already gives every worker its own accept queue.
 * This bench quantifies the mutex's effect on both kernels.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Ablation: nginx accept mutex x kernel",
           "Paper 4.2.2: the accept mutex is pointless (disabled) once "
           "the listen socket is partitioned per core.");

    BenchJsonReport json("ablation_acceptmutex");
    const KernelUnderTest kernels[2] = {kKernels[0], kKernels[2]};
    std::vector<BenchRow> rows;
    for (const KernelUnderTest &k : kernels)
        for (bool mutex : {false, true}) {
            ExperimentConfig cfg;
            cfg.app = AppKind::kNginx;
            cfg.machine.cores = 12;
            cfg.machine.kernel = k.config;
            cfg.acceptMutex = mutex;
            cfg.concurrencyPerCore = args.quick ? 100 : 300;
            cfg.warmupSec = args.quick ? 0.02 : 0.04;
            cfg.measureSec = args.quick ? 0.04 : 0.1;
            rows.push_back({std::string(k.name) +
                                (mutex ? "-mutex-on" : "-mutex-off"),
                            cfg});
        }
    const std::vector<ExperimentResult> res =
        runRows(args, json, std::move(rows));

    TextTable table;
    table.header({"kernel", "accept mutex", "throughput", "max util",
                  "min util"});
    std::size_t i = 0;
    for (const KernelUnderTest &k : kernels)
        for (bool mutex : {false, true}) {
            const ExperimentResult &r = res[i++];
            table.row({k.name, mutex ? "on" : "off", kcps(r.cps),
                       formatPercent(r.maxUtil()),
                       formatPercent(r.minUtil())});
        }
    table.print();
    std::printf("\nExpected: the mutex costs throughput whenever accept "
                "is a shared resource; under Fastsocket\nthe listen path "
                "is already per-core, so serializing it is pure loss.\n");
    finishJson(args, json);
    return 0;
}
