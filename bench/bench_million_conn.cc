/**
 * @file
 * Million-connection machine: ramp one simulated server to a very large
 * concurrent TCB population under a mixed short-/long-lived workload and
 * measure what the paper's data structures cost per connection.
 *
 * Mechanism: an open-loop client fleet launches connections at a fixed
 * rate; 90% of them are long-lived keep-alive connections that issue one
 * request and then park (think time far beyond the run horizon), so the
 * ESTABLISHED population grows linearly. The remaining 10% are
 * "Connection: close" exchanges whose active close on the server side
 * keeps TIME_WAIT churn alive throughout the ramp.
 *
 * Metrics per ramp checkpoint: live TCBs, slab-arena bytes per
 * connection, and established-hash lookup cost (delta cycles/lookup and
 * chain probes/lookup). The paper's thesis in miniature: the base
 * kernel's global fixed-size ehash (16384 buckets) grows O(N/buckets)
 * chains — every SYN's duplicate check and every TIME_WAIT segment walks
 * them — while Fastsocket's per-core local tables resize and stay flat.
 *
 * Gates (exit 1 on violation, with a reproducer line; reported but not
 * enforced under --faults or --overload):
 *   - fastsocket holds >= 20/21 of its target live at peak: 1M TCBs
 *     (100k with --quick) by default;
 *   - fastsocket cycles/lookup stays flat (last <= 1.10x first
 *     checkpoint), and so does bytes-per-connection;
 *   - base-2.6.32 cycles/lookup degrades (last >= 1.30x first).
 */

#include "bench_common.hh"

namespace
{

struct RampRow
{
    const char *name;
    fsim::KernelConfig kernel;
    double ratePerSec;          //!< open-loop launch rate
    std::uint64_t targetParked; //!< long-lived population to reach
    bool mustHoldTarget;        //!< gate: peak live >= target
    bool mustStayFlat;          //!< gate: lookup cost flat across ramp
    bool mustDegrade;           //!< gate: lookup cost grows across ramp
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv, {"--target="});

    banner("Million-connection machine (nginx, 24 cores, open loop)",
           "Connection-count ramp: 90% of connections park in "
           "ESTABLISHED, 10% churn through TIME_WAIT.\nThe base "
           "kernel's fixed global ehash degrades with population; "
           "Fastsocket's per-core tables stay flat.\n(Tracing is "
           "forced off: span logs do not scale to 1M connections.)");

    // --target=<n> overrides the parked-population target of every row,
    // for a shorter (or longer) ramp; the hold gate follows it.
    std::uint64_t target_override = 0;
    args.extraCount("--target=", target_override);

    const std::uint64_t fast_target =
        target_override ? target_override
                        : (args.quick ? 105'000 : 1'050'000);
    // The base kernel is not asked to hold a million: its global ehash
    // is the thing under indictment, and 250k entries (15-deep chains)
    // already shows the slope without a ten-minute run.
    const std::uint64_t base_target =
        target_override ? target_override
                        : (args.quick ? 105'000 : 250'000);
    // Fastsocket must hold 20/21 of its target at peak: exactly 100K
    // (quick) and 1M by default.
    const std::uint64_t hold_gate = fast_target * 20 / 21;

    const RampRow rows[] = {
        {"base-2.6.32", KernelConfig::base2632(), 100e3, base_target,
         /*hold=*/false, /*flat=*/false, /*degrade=*/true},
        {"fastsocket", KernelConfig::fastsocket(),
         args.quick ? 150e3 : 250e3, fast_target,
         /*hold=*/true, /*flat=*/true, /*degrade=*/false},
    };
    constexpr int kCheckpoints = 8;
    constexpr double kLongLivedShare = 0.9;   // longLivedPermille / 1000

    TextTable table;
    table.header({"kernel", "target", "peak live", "B/conn",
                  "probe 1st>last", "cyc/lkp 1st>last", "tw entered",
                  "gates"});

    Bench bench("million_conn", args);
    Gates &gates = bench.gates;

    std::vector<BenchRow<>> benchRows;
    for (const RampRow &row : rows) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 24;
        cfg.machine.kernel = row.kernel;
        cfg.longLivedPermille =
            static_cast<int>(kLongLivedShare * 1000.0);
        cfg.longLivedRequests = 2;
        // Park far past the run horizon: the long-lived population only
        // releases its slots after the bench has already collected.
        cfg.longLivedThink = ticksFromSeconds(30.0);
        cfg.listenBacklog = 1024;
        cfg.machine.kernel.synBacklog = 4096;
        cfg.machine.traceEnabled = false;   // span logs don't scale to 1M
        BenchRow<> benchRow{row.name, cfg};
        benchRow.drive = [&args, &row](Testbed &bed, RowOutput<NoRead> &out) {
            KernelStack &kern = bed.machine().kernel();
            const double ramp_sec =
                static_cast<double>(row.targetParked) /
                (row.ratePerSec * kLongLivedShare);
            bed.load().startOpenLoop(row.ratePerSec);

            std::vector<ConnRampPoint> ramp;
            std::uint64_t prev_lookups = 0, prev_probes = 0, prev_cycles = 0;
            const Tick t0 = bed.eventQueue().now();
            for (int i = 1; i <= kCheckpoints; ++i) {
                bed.runUntilChecked(
                    t0 + ticksFromSeconds(ramp_sec * i / kCheckpoints));
                ConnRampPoint pt;
                pt.live = kern.liveSockets();
                const TcbArena &arena = kern.tcbArena();
                pt.bytesPerConn =
                    arena.peakLive()
                        ? static_cast<double>(arena.slabBytes()) /
                              static_cast<double>(arena.peakLive())
                        : 0.0;
                std::uint64_t lk = kern.ehashLookups() - prev_lookups;
                std::uint64_t pr = kern.ehashProbesWalked() - prev_probes;
                std::uint64_t cy = kern.ehashLookupCycles() - prev_cycles;
                prev_lookups += lk;
                prev_probes += pr;
                prev_cycles += cy;
                if (lk) {
                    pt.cyclesPerLookup = static_cast<double>(cy) /
                                         static_cast<double>(lk);
                    pt.avgProbeLen = static_cast<double>(pr) /
                                     static_cast<double>(lk);
                }
                ramp.push_back(pt);
            }

            // Measure a short steady window on top of the full
            // population, then collect the run census.
            bed.markWindows();
            bed.runUntilChecked(bed.eventQueue().now() +
                                ticksFromSeconds(args.quick ? 0.05 : 0.1));
            ExperimentResult r = bed.collect();
            r.conn.ramp = std::move(ramp);
            out.yield(std::move(r));
        };
        benchRows.push_back(std::move(benchRow));
    }
    const auto done = runRows(bench, std::move(benchRows));

    for (std::size_t k = 0; k < std::size(rows); ++k) {
        const RampRow &row = rows[k];
        const ExperimentResult &r = done.results[k];
        const ExperimentConfig &cfg = done.configs[k];
        const std::vector<ConnRampPoint> &ramp = r.conn.ramp;
        const ConnRampPoint &first = ramp.front();
        const ConnRampPoint &last = ramp.back();
        // Flatness reference: the cheapest second-half checkpoint. The
        // first half of the ramp fills an initially empty table toward
        // its operating load factor — cost legitimately rises there on
        // both kernels; what must NOT happen on a scalable design is
        // further growth once the table is at load (resize keeps the
        // load factor, and therefore the chains, population-invariant).
        double settled = 0.0;
        for (std::size_t i = ramp.size() / 2; i < ramp.size(); ++i)
            if (ramp[i].cyclesPerLookup > 0 &&
                (settled == 0.0 || ramp[i].cyclesPerLookup < settled))
                settled = ramp[i].cyclesPerLookup;

        const int failuresBefore = gates.failures();
        if (row.mustHoldTarget)
            gates.calibrated(r.conn.tcbLivePeak >= hold_gate, cfg,
                             "%s: held %llu live TCBs at peak, gate >= "
                             "%llu",
                             row.name,
                             llu(r.conn.tcbLivePeak), llu(hold_gate));
        if (row.mustStayFlat && settled > 0) {
            gates.calibrated(last.cyclesPerLookup <= 1.10 * settled, cfg,
                             "%s: cycles/lookup settled %.1f -> last "
                             "%.1f, flat gate 1.10x",
                             row.name, settled, last.cyclesPerLookup);
            gates.calibrated(last.bytesPerConn <=
                                 1.10 * first.bytesPerConn,
                             cfg,
                             "%s: bytes/conn %.1f -> %.1f, flat gate "
                             "1.10x",
                             row.name, first.bytesPerConn,
                             last.bytesPerConn);
        }
        if (row.mustDegrade && first.cyclesPerLookup > 0)
            gates.calibrated(last.cyclesPerLookup >=
                                 1.30 * first.cyclesPerLookup,
                             cfg,
                             "%s: cycles/lookup %.1f -> %.1f, "
                             "degradation gate 1.30x (global ehash "
                             "should not scale)",
                             row.name, first.cyclesPerLookup,
                             last.cyclesPerLookup);
        const char *verdict =
            gates.failures() == failuresBefore ? "ok" : "FAIL";

        char probe[32], cyc[32], bpc[32], tgt[24], peak[24], tw[24];
        std::snprintf(probe, sizeof(probe), "%.2f > %.2f",
                      first.avgProbeLen, last.avgProbeLen);
        std::snprintf(cyc, sizeof(cyc), "%.0f > %.0f",
                      first.cyclesPerLookup, last.cyclesPerLookup);
        std::snprintf(bpc, sizeof(bpc), "%.0f", r.conn.bytesPerConn);
        std::snprintf(tgt, sizeof(tgt), "%lluK", llu(row.targetParked / 1000));
        std::snprintf(peak, sizeof(peak), "%lluK",
                      llu(r.conn.tcbLivePeak / 1000));
        std::snprintf(tw, sizeof(tw), "%llu", llu(r.conn.timeWaitEntered));
        table.row({row.name, tgt, peak, bpc, probe, cyc, tw, verdict});
    }

    table.print();
    const int status = bench.finish();
    std::printf("\n%s\n", status ? "million-conn gates FAILED"
                                 : "all million-conn gates passed");
    return status;
}
