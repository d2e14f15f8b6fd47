/**
 * @file
 * Resilience bench: goodput and latency over time while faults fire.
 *
 * Four fault scenarios (wire loss burst, SYN flood, ATR flow-table
 * churn, backend outage+brownout) each run on base-2.6.32 and
 * Fastsocket with the matching hardening armed (client retransmission
 * backoff, stateless SYN cookies, RSS fallback, proxy failover). The
 * measurement window is split into 12 sub-windows so the per-window
 * goodput curve shows the dip during the fault window and the recovery
 * after it.
 *
 * Pass criteria (exit status != 0 on violation; the first two are
 * reported but not enforced when --faults or --overload overrides the
 * scenario setup):
 *   - goodput after the fault window recovers to >= 90% of the
 *     pre-fault level, on both kernels;
 *   - under the SYN flood with cookies enabled, legitimate goodput
 *     stays nonzero inside the fault window;
 *   - every run's invariants hold (checkLevel=periodic).
 *
 * The paper's claim is about clean-network peak throughput; this bench
 * guards the complementary property that neither kernel model trades
 * robustness for that peak.
 */

#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace fsim;

using ProxyCounters = std::vector<unsigned long long>;

struct Scenario
{
    const char *name;
    AppKind app;
    std::string plan;       //!< fault plan text, absolute sim times
    bool synCookies = false;
    std::size_t synBacklog = 0;
    bool clientRetx = false;    //!< arm client SYN/request backoff
    bool backendRetry = false;  //!< arm proxy timeout+retry+ejection
    bool duringNonzero = false; //!< require goodput > 0 inside the fault
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Resilience: goodput over time under injected faults",
           "Fault window covers the middle third of the measurement "
           "window (sub-windows 4-7 of 12).\nExpected: goodput dips "
           "while the fault is live and recovers to >=90% of the "
           "pre-fault level afterwards, on both kernels.");

    // 12 sub-windows; the fault spans sub-windows 4..7.
    const double warmup = args.quick ? 0.02 : 0.03;
    const double winLen = args.quick ? 0.01 : 0.03;
    const int nWin = 12;
    const double fs = warmup + 4 * winLen;
    const double fe = warmup + 8 * winLen;

    const Scenario scenarios[] = {
        {"loss-burst", AppKind::kNginx,
         "loss_burst@" + windowStr(fs, fe, ":rate=0.25"),
         false, 0, /*clientRetx=*/true, false, false},
        {"syn-flood", AppKind::kNginx,
         "syn_flood@" + windowStr(fs, fe, ":rate=200000"),
         /*synCookies=*/true, /*synBacklog=*/256, true, false,
         /*duringNonzero=*/true},
        {"flow-churn", AppKind::kNginx,
         "atr_shrink@" + windowStr(fs, fe, ":size=64"),
         false, 0, false, false, false},
        {"backend-flap", AppKind::kHaproxy,
         "backend_down@" + windowStr(fs, fe, ":target=0") +
             ";backend_slow@" + windowStr(fs, fe, ":factor=6,target=1"),
         false, 0, true, /*backendRetry=*/true, false},
    };

    Bench bench("resilience", args);
    Gates &gates = bench.gates;

    std::vector<BenchRow<Testbed, ProxyCounters>> rows;
    for (const Scenario &sc : scenarios)
        for (const KernelUnderTest &k : kBaseAndFast) {
            ExperimentConfig cfg;
            cfg.app = sc.app;
            cfg.machine.cores = 8;
            cfg.machine.kernel = k.config;
            // The backend-flap scenario runs at lower concurrency: a
            // saturated closed loop pushes the proxy's backend-leg tail
            // latency past any useful per-attempt timeout, so timeouts
            // would fire spuriously instead of indicating failure and
            // the resulting retries feed back into more queueing.
            if (sc.backendRetry)
                cfg.concurrencyPerCore = 40;
            else
                cfg.concurrencyPerCore = args.quick ? 100 : 250;
            cfg.warmupSec = warmup;
            cfg.measureSec = nWin * winLen;
            cfg.statWindows = nWin;
            cfg.checkLevel = CheckLevel::kPeriodic;
            cfg.clientTimeout = ticksFromSeconds(0.08);
            if (sc.synCookies)
                cfg.machine.kernel.synCookies = true;
            if (sc.synBacklog > 0)
                cfg.machine.kernel.synBacklog = sc.synBacklog;
            // Reap embryonic TCBs 30ms after the flood plants them so
            // the SYN queue drains shortly after the attack stops and
            // the recovery windows measure the normal (non-cookie)
            // path again. The stock 300-jiffy figure outlives the run.
            if (sc.synCookies)   // the SYN-flood scenario
                cfg.machine.kernel.synRcvdJiffies = 30;
            // The client RTO must clear the closed loop's saturated
            // end-to-end latency (concurrency / goodput, ~9ms here) or
            // retransmissions fire spuriously and feed back into load;
            // 15ms leaves the 15/30ms ladder inside the 80ms give-up.
            if (sc.clientRetx)
                cfg.clientRtoBase = ticksFromUsec(15000);
            if (sc.backendRetry)
                cfg.backendTimeout = ticksFromUsec(10000);
            BenchRow<Testbed, ProxyCounters> row{
                std::string(sc.name) + "/" + k.name, cfg, sc.plan};
            // The proxy's backend-leg counters in print order (nginx: none).
            row.read = [](Testbed &bed) {
                ProxyCounters pc;
                if (const auto *px = dynamic_cast<const Proxy *>(&bed.app()))
                    pc = {px->backendTimeouts(), px->backendRetries(),
                          px->backendEjections(), px->backendReadmissions(),
                          px->sessionFailures(), px->connectFailures()};
                return pc;
            };
            rows.push_back(std::move(row));
        }
    const auto done = runRows(bench, std::move(rows));

    std::size_t i = 0;
    for (const Scenario &sc : scenarios) {
        std::printf("--- scenario %s (%s) ---\n", sc.name,
                    sc.app == AppKind::kHaproxy ? "haproxy" : "nginx");
        for (const KernelUnderTest &k : kBaseAndFast) {
            const ExperimentResult &r = done.results[i];
            const ExperimentConfig &cfg = done.configs[i];
            const ProxyCounters &pc = done.reads[i++];
            std::printf("%-12s goodput/s by sub-window:", k.name);
            for (const LockWindow &w : r.lockWindows)
                std::printf(" %5.0fK", w.goodput / 1000.0);
            std::printf("\n");

            if (!pc.empty())
                std::printf("%-12s proxy: %llu timeouts, %llu retries, "
                            "%llu ejections, %llu readmissions, %llu "
                            "session failures, %llu connect failures\n",
                            "", pc[0], pc[1], pc[2], pc[3], pc[4], pc[5]);

            // Windows 0..3 precede the fault (0 discarded as ramp),
            // 4..7 overlap it, 8..11 follow it (8 discarded as drain).
            double pre = meanGoodput(r.lockWindows, 1, 3);
            double during = meanGoodput(r.lockWindows, 4, 7);
            double post = meanGoodput(r.lockWindows, 9, 11);
            double ratio = pre > 0.0 ? post / pre : 0.0;
            std::printf("%-12s pre %.0fK  during %.0fK  post %.0fK  "
                        "recovery %.0f%%  [%s]\n",
                        "", pre / 1000.0, during / 1000.0, post / 1000.0,
                        100.0 * ratio, r.invariants.summary().c_str());

            gates.calibrated(ratio >= 0.9, cfg,
                             "post-fault goodput %.0f%% of pre-fault "
                             "(< 90%%)", 100.0 * ratio);
            gates.calibrated(!sc.duringNonzero || during > 0.0, cfg,
                             "goodput hit zero during the fault window");
        }
        std::printf("\n");
    }

    return bench.finish(/*verdict=*/true);
}
