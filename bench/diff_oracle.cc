/**
 * @file
 * Differential oracle driver (src/check/differential.hh).
 *
 * Runs the same bounded workload under the baseline 2.6.32 kernel and
 * under Fastsocket and asserts the paper's central split: identical
 * application-level output (connections, responses, bytes), different
 * performance (drain time / lock-wait cycles, from 4 cores up).
 *
 * The nginx workload also runs a lossy pass (skip with --nofaults):
 * wire fault fates are pure content hashes, so both kernels face the
 * exact same packet losses and the equality bar holds under faults too.
 * Three conditions make that argument airtight:
 *   - the fault window covers the whole run, so window membership never
 *     depends on when a kernel happens to transmit a packet;
 *   - the client RTO (20ms) sits far above worst-case service latency,
 *     so every retransmission decision is loss-driven, never
 *     speed-driven, and give-up classification compares quantized
 *     retransmission offsets against the timeout, never near-ties;
 *   - the workload is passive-only (nginx). haproxy is excluded: the
 *     proxy's backend connections use kernel-chosen ephemeral ports, so
 *     the two kernels emit differently-identified packets and draw
 *     genuinely different fates.
 *
 * Usage: diff_oracle [--cores=N] [--conns=N] [--seed=S] [--app=nginx|
 * haproxy|both] [--nofaults]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hh"
#include "check/differential.hh"

namespace
{

int
runOne(const fsim::DifferentialWorkload &wl, const char *name)
{
    using namespace fsim;
    std::printf("=== %s, %d cores, %llu connections%s%s ===\n", name,
                wl.cores, static_cast<unsigned long long>(wl.maxConns),
                wl.faultPlan.empty() ? "" : ", faults ",
                wl.faultPlan.c_str());
    DifferentialOutcome out = runDifferential(wl);
    std::printf("%s\n\n", out.summary().c_str());
    return out.ok() ? 0 : 1;
}

/** The lossy pass: whole-run random drops both kernels must absorb
 *  with byte-identical application output (see the file comment for
 *  why the window must cover the entire run). */
fsim::DifferentialWorkload
withLossBurst(fsim::DifferentialWorkload wl)
{
    wl.faultPlan = "loss_burst@0-10:rate=0.25";
    wl.clientTimeoutSec = 0.1;
    wl.clientRtoMsec = 20.0;
    return wl;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;

    // Shared flags (--seed) come from BenchArgs; oracle-specific flags
    // are consumed from its leftover-argument list.
    BenchArgs args = BenchArgs::parse(
        argc, argv, {"--nofaults", "--cores=", "--conns=", "--app="});
    DifferentialWorkload wl;
    std::string app = "both";
    bool faults = !args.extraFlag("--nofaults");
    if (args.seed != 0)
        wl.seed = args.seed;
    args.extraCount("--cores=", wl.cores);
    args.extraCount("--conns=", wl.maxConns);
    args.extraValue("--app=", app);
    if (app != "nginx" && app != "haproxy" && app != "both") {
        std::fprintf(stderr, "--app=: '%s' is not nginx, haproxy or both\n",
                     app.c_str());
        return 2;
    }

    int rc = 0;
    if (app == "nginx" || app == "both") {
        wl.app = AppKind::kNginx;
        rc |= runOne(wl, "nginx");
        if (faults)
            rc |= runOne(withLossBurst(wl), "nginx+loss-burst");
    }
    if (app == "haproxy" || app == "both") {
        wl.app = AppKind::kHaproxy;
        rc |= runOne(wl, "haproxy");
        // No lossy pass: backend-leg ephemeral ports are kernel-chosen,
        // so the two kernels' packets draw different content-hash fates.
    }
    if (rc == 0)
        std::printf("differential oracle: PASS\n");
    else
        std::printf("differential oracle: FAIL\n");
    return rc;
}
