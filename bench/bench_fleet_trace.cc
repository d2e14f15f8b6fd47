/**
 * @file
 * Fleet distributed-tracing bench: end-to-end trace stitching, metrics
 * time series, and SLO burn-rate gates.
 *
 * Three scenarios, each on base-2.6.32 and Fastsocket, against a
 * 4-machine / 2-balancer fleet with the trace context propagated
 * client -> balancer NAT -> server TCB:
 *
 *   - steady: clean open-loop load. Gates: lossless stitching — every
 *     request the client started has exactly one trace record, every
 *     finished request completed its trace (started == traces_started,
 *     completed + failed == traces_completed), zero orphans (a
 *     completed-ok trace with no balancer hop means the context was
 *     lost in the NAT rewrite), zero duplicates (a trace-id collision
 *     between distinct attempts), every successful request's trace
 *     carries its server-machine span, and recorded exec-span time
 *     reconciles against per-core busy ticks on every machine.
 *   - failover-churn: a machine blackholes mid-run and a balancer dies
 *     while it is down (VIP failover). Same lossless-stitching gates:
 *     crash, restart and failover must not orphan or duplicate any
 *     trace — retransmitted SYNs reuse the attempt's trace id, and the
 *     adopting balancer re-stamps the context from its own flow state.
 *   - gray-burn: one machine goes gray (CPU stretch + egress jitter)
 *     under the latency-aware scoring detector, with the SLO tracker
 *     armed (availability + latency objectives). Gates: the fast
 *     burn-rate alert fires, and it fires BEFORE the balancer's scorer
 *     ejects the gray machine — the pager learns about the incident
 *     from the error budget, not from remediation side effects.
 *
 * Every run's invariants must hold, and the whole bench is
 * deterministic for a fixed --seed. --metrics=<path> dumps the sampled
 * time series as Prometheus text; --perfetto=<path> exports the
 * stitched fleet traces (one track per machine/balancer, cross-machine
 * flow arrows); --forensics prints the end-to-end critical-path
 * breakdown per hop.
 */

#include <string>
#include <vector>

#include "bench_common.hh"
#include "fleet/fleet.hh"

namespace
{

using namespace fsim;

struct Scenario
{
    const char *name;
    std::string plan;       //!< fleet fault plan, absolute sim times
    bool sloArmed = false;  //!< arm the SLO tracker + latency objective
    bool gateBurnBeforeEject = false;
};

/** What a row reads from its fleet for the stitching and burn gates,
 *  and the outcome of its --perfetto export. */
struct TraceChecks
{
    std::uint64_t started = 0;      //!< requests the clients started
    std::uint64_t finished = 0;     //!< completed + failed requests
    /** Ok traces whose server span never joined (must be zero after
     *  the settle window: every successful request was served by
     *  SOMEONE). */
    std::uint64_t unstitched = 0;
    /** First kSloBurn detect and gray-degrade eject stamps (0: none). */
    Tick burnAt = 0;
    Tick ejectAt = 0;
    bool ejected = false;
    PerfettoFile perfetto;
};

/** Read step: the row's trace checks, and its stitched fleet traces
 *  exported under --perfetto (one file per row). */
TraceChecks
readTraceChecks(FleetTestbed &bed, const BenchArgs &args,
                const char *scenario, const char *kernel)
{
    TraceChecks tc;
    tc.started = bed.load().started();
    tc.finished = bed.load().completed() + bed.load().failed();
    tc.unstitched = bed.traceLog().unstitchedOk();
    for (const Incident &inc : bed.incidents().incidents()) {
        if (inc.kind == IncidentKind::kSloBurn && inc.detected &&
            (tc.burnAt == 0 || inc.detectAt < tc.burnAt))
            tc.burnAt = inc.detectAt;
        if (inc.kind == IncidentKind::kMachineDegrade && inc.ejected) {
            tc.ejected = true;
            if (tc.ejectAt == 0 || inc.ejectAt < tc.ejectAt)
                tc.ejectAt = inc.ejectAt;
        }
    }
    if (!args.perfettoPath.empty() && args.trace) {
        FleetPerfettoMeta meta;
        meta.bench = "bench_fleet_trace";
        meta.label = std::string(scenario) + "/" + kernel;
        meta.machines = bed.machineCount();
        meta.balancers = bed.balancerCount();
        tc.perfetto.path = perfettoRowPath(
            args.perfettoPath, std::string(scenario) + "-" + kernel);
        tc.perfetto.written = writeFleetPerfettoTrace(
            tc.perfetto.path, bed.traceLog(), meta, &tc.perfetto.stats);
    }
    return tc;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Fleet tracing: end-to-end stitching, time-series metrics, "
           "SLO burn gates",
           "4 server machines behind 2 L4 balancers; a 64-bit trace "
           "context rides every packet through the NAT rewrite.\n"
           "Expected: every request stitches into exactly one "
           "end-to-end trace across crash/failover, span time "
           "reconciles\nagainst CPU busy ticks, and a gray degrade "
           "burns the error budget loudly before the scorer ejects "
           "the machine.");

    const int nWin = 24;
    const double warmup = args.quick ? 0.02 : 0.03;
    const double winLen = args.quick ? 0.0075 : 0.015;
    // Faults span sub-windows 8..16 (a third of the run), leaving a
    // clean lead-in and a recovery tail.
    const double fs = warmup + 8 * winLen;
    const double fe = warmup + 16 * winLen;
    const double steadyRate = args.quick ? 40'000.0 : 80'000.0;

    const Scenario scenarios[] = {
        {"steady", "", false, false},
        {"failover-churn",
         "machine_crash@" +
             windowStr(fs, fe - 2 * winLen,
                       ":target=1,mode=blackhole", 4) +
             ";lb_crash@" + windowStr(fs + 2 * winLen, fe, ":target=0", 4),
         false, false},
        {"gray-burn",
         "machine_degrade@" +
             windowStr(fs, fe, ":target=1,factor=1.3,jitter=800", 4),
         /*sloArmed=*/true, /*gateBurnBeforeEject=*/true},
    };

    Bench bench("fleet_trace", args);
    Gates &gates = bench.gates;

    std::vector<BenchRow<FleetTestbed, TraceChecks>> rows;
    for (const Scenario &sc : scenarios)
        for (const KernelUnderTest &k : kBaseAndFast) {
            FleetConfig fc = fleetPreset(k.config, warmup, winLen, nWin);
            fc.openLoopRate = steadyRate;
            if (sc.gateBurnBeforeEject) {
                // The point of the scenario: the SLO layer pages while
                // the scorer is still accumulating eject evidence. The
                // conservative outlier streak models a production
                // remediation loop that refuses to act on thin data.
                fc.healthMode = L4Balancer::HealthMode::kScore;
                fc.healthScore.outlierRounds = 10;
            }
            if (sc.sloArmed) {
                fc.sloEnabled = true;
                // One sub-window per SLO window; the fast arm reacts to
                // a single bad window (a gray machine serves ~25% of
                // requests — burn ~25x against a 1% latency budget).
                fc.slo.fastWindows = 1;
                fc.slo.latencyObjective = ticksFromUsec(3000);
            }
            BenchRow<FleetTestbed, TraceChecks> row{
                std::string(sc.name) + "/" + k.name, fc, sc.plan};
            row.drive = [](FleetTestbed &bed, RowOutput<TraceChecks> &out) {
                ExperimentResult r = bed.run();
                // Settle: stop launching and drain in-flight teardowns
                // so every finished request's server TCB has destructed
                // (its span completed). Without this, requests
                // finishing in the last RTT legitimately lack a machine
                // span and the unstitched gate would race the FIN
                // exchange.
                bed.load().setOpenLoopRate(0.0);
                bed.runUntilChecked(bed.eventQueue().now() +
                                    ticksFromSeconds(0.02));
                std::vector<LockWindow> windows = std::move(r.lockWindows);
                r = bed.collect();
                r.lockWindows = std::move(windows);
                out.yield(std::move(r));
            };
            row.read = [&args, &sc, &k](FleetTestbed &bed) {
                return readTraceChecks(bed, args, sc.name, k.name);
            };
            rows.push_back(std::move(row));
        }
    const auto done = runRows(bench, std::move(rows));

    std::size_t i = 0;
    for (const Scenario &sc : scenarios) {
        std::printf("--- scenario %s ---\n", sc.name);
        for (const KernelUnderTest &k : kBaseAndFast) {
            const ExperimentResult &r = done.results[i];
            const ExperimentConfig &cfg = done.configs[i];
            const TraceChecks &tc = done.reads[i++];
            const FleetResult &fl = r.fleet;
            std::printf(
                "%-12s traces: started %llu/%llu, completed %llu/%llu, "
                "stitched %llu, orphans %llu, dups %llu, unstitched-ok "
                "%llu, reconcile-violations %llu\n",
                k.name, llu(fl.tracesStarted), llu(tc.started),
                llu(fl.tracesCompleted), llu(tc.finished),
                llu(fl.tracesStitched), llu(fl.traceOrphans),
                llu(fl.traceDuplicates), llu(tc.unstitched),
                llu(fl.spanReconcileViolations));
            const FleetTraceForensics &ft = r.fleetTrace;
            std::printf(
                "%-12s e2e p50/p99/p999 %llu/%llu/%llu ticks, critical "
                "path p50=%s p99=%s p999=%s  [%s]\n",
                "", llu(ft.e2eP50), llu(ft.e2eP99), llu(ft.e2eP999),
                ft.dominantP50.empty() ? "-" : ft.dominantP50.c_str(),
                ft.dominantP99.empty() ? "-" : ft.dominantP99.c_str(),
                ft.dominantP999.empty() ? "-" : ft.dominantP999.c_str(),
                r.invariants.summary().c_str());
            if (sc.sloArmed)
                std::printf(
                    "%-12s slo: fast alerts %llu (first at %.2fms), "
                    "slow alerts %llu, score ejections %llu\n",
                    "", llu(fl.sloFastAlerts), fl.sloFirstFastAlertMs,
                    llu(fl.sloSlowAlerts), llu(fl.scoreEjections));

            const PerfettoFile &pf = tc.perfetto;
            if (pf.written)
                std::printf("wrote %s (%llu traces, %llu flow arrows%s)\n",
                            pf.path.c_str(), llu(pf.stats.tracesExported),
                            llu(pf.stats.flowPairs),
                            pf.stats.truncated ? ", truncated" : "");
            else if (!pf.path.empty())
                std::fprintf(stderr, "error: could not write %s\n",
                             pf.path.c_str());

            // Reconciliation holds with or without faults (vacuously
            // zero under --notrace).
            gates.invariant(fl.spanReconcileViolations == 0, cfg,
                            "%llu cores recorded more exec-span time than "
                            "they ran",
                            llu(fl.spanReconcileViolations));
            if (!args.trace)
                continue;   // stitching gates need the recorder on
            gates.invariant(fl.tracesStarted == tc.started &&
                                fl.tracesCompleted == tc.finished,
                            cfg,
                            "trace accounting broke: started %llu != %llu "
                            "or completed %llu != %llu",
                            llu(fl.tracesStarted), llu(tc.started),
                            llu(fl.tracesCompleted), llu(tc.finished));
            gates.invariant(fl.traceOrphans == 0 && fl.traceDuplicates == 0,
                            cfg,
                            "lossless stitching broke: %llu orphans, %llu "
                            "duplicates",
                            llu(fl.traceOrphans), llu(fl.traceDuplicates));
            gates.invariant(tc.unstitched == 0, cfg,
                            "%llu successful requests have no "
                            "server-machine span",
                            llu(tc.unstitched));
            if (!sc.gateBurnBeforeEject)
                continue;
            gates.calibrated(fl.sloFastAlerts != 0 && tc.burnAt != 0, cfg,
                             "gray degrade never fired a fast burn-rate "
                             "alert");
            gates.calibrated(tc.ejected, cfg,
                             "scorer never ejected the gray machine "
                             "(calibration broke)");
            gates.calibrated(tc.burnAt == 0 || !tc.ejected ||
                                 tc.burnAt < tc.ejectAt,
                             cfg,
                             "burn alert at %.2fms did not precede scorer "
                             "eject at %.2fms",
                             secondsFromTicks(tc.burnAt) * 1000.0,
                             secondsFromTicks(tc.ejectAt) * 1000.0);
        }
        std::printf("\n");
    }

    return bench.finish(/*verdict=*/true);
}
