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

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fleet/fleet.hh"
#include "sim/logging.hh"

namespace
{

using namespace fsim;

const char *kBenchName = "bench_fleet_trace";

struct Scenario
{
    const char *name;
    std::string plan;       //!< fleet fault plan, absolute sim times
    bool sloArmed = false;  //!< arm the SLO tracker + latency objective
    bool gateBurnBeforeEject = false;
};

/** Ok traces whose server span never joined (must be zero after the
 *  settle window: every successful request was served by SOMEONE). */
std::uint64_t
unstitchedOk(const FleetTraceLog &log)
{
    std::uint64_t n = 0;
    for (const FleetTrace &tr : log.records())
        if (tr.clientDone() && tr.ok() && !tr.stitched()) {
            ++n;
#ifdef FSIM_TRACE_DEBUG
            std::printf("  [unstitched] trace=%llx start=%llu end=%llu "
                        "lbFlows=%llu lbForwards=%llu\n",
                        (unsigned long long)tr.traceId(),
                        (unsigned long long)tr.clientStart(),
                        (unsigned long long)tr.clientEnd(),
                        (unsigned long long)tr.lbFlows(),
                        (unsigned long long)tr.lbForwards());
#endif
        }
    return n;
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
    const KernelUnderTest kernels[2] = {kKernels[0], kKernels[2]};

    BenchJsonReport json("fleet_trace");
    Gates gates(kBenchName, args);

    for (const Scenario &sc : scenarios) {
        std::printf("--- scenario %s ---\n", sc.name);
        for (const KernelUnderTest &k : kernels) {
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
            if (!sc.plan.empty()) {
                std::string perr;
                bool ok = parseFaultPlan(sc.plan, fc.base.faults, perr);
                fsim_assert(ok && "scenario plans are hand-written");
            }
            // An explicit --faults plan replaces the scenario's plan.
            args.apply(fc.base);

            FleetTestbed bed(fc);
            ExperimentResult r = bed.run();

            // Settle: stop launching and drain in-flight teardowns so
            // every finished request's server TCB has destructed (its
            // span completed). Without this, requests finishing in the
            // last RTT legitimately lack a machine span and the
            // unstitched gate would race the FIN exchange.
            bed.load().setOpenLoopRate(0.0);
            bed.runUntilChecked(bed.eventQueue().now() +
                                ticksFromSeconds(0.02));
            std::vector<LockWindow> windows =
                std::move(r.lockWindows);
            r = bed.collect();
            r.lockWindows = std::move(windows);
            json.addRow(std::string(sc.name) + "/" + k.name, fc.base,
                        r);

            const FleetResult &fl = r.fleet;
            const std::uint64_t finished =
                bed.load().completed() + bed.load().failed();
            const std::uint64_t unstitched =
                unstitchedOk(bed.traceLog());
            std::printf(
                "%-12s traces: started %llu/%llu, completed %llu/%llu, "
                "stitched %llu, orphans %llu, dups %llu, unstitched-ok "
                "%llu, reconcile-violations %llu\n",
                k.name,
                static_cast<unsigned long long>(fl.tracesStarted),
                static_cast<unsigned long long>(bed.load().started()),
                static_cast<unsigned long long>(fl.tracesCompleted),
                static_cast<unsigned long long>(finished),
                static_cast<unsigned long long>(fl.tracesStitched),
                static_cast<unsigned long long>(fl.traceOrphans),
                static_cast<unsigned long long>(fl.traceDuplicates),
                static_cast<unsigned long long>(unstitched),
                static_cast<unsigned long long>(
                    fl.spanReconcileViolations));
            const FleetTraceForensics &ft = r.fleetTrace;
            std::printf(
                "%-12s e2e p50/p99/p999 %llu/%llu/%llu ticks, critical "
                "path p50=%s p99=%s p999=%s  [%s]\n",
                "", static_cast<unsigned long long>(ft.e2eP50),
                static_cast<unsigned long long>(ft.e2eP99),
                static_cast<unsigned long long>(ft.e2eP999),
                ft.dominantP50.empty() ? "-" : ft.dominantP50.c_str(),
                ft.dominantP99.empty() ? "-" : ft.dominantP99.c_str(),
                ft.dominantP999.empty() ? "-" : ft.dominantP999.c_str(),
                r.invariants.summary().c_str());
            if (sc.sloArmed)
                std::printf(
                    "%-12s slo: fast alerts %llu (first at %.2fms), "
                    "slow alerts %llu, score ejections %llu\n",
                    "",
                    static_cast<unsigned long long>(fl.sloFastAlerts),
                    fl.sloFirstFastAlertMs,
                    static_cast<unsigned long long>(fl.sloSlowAlerts),
                    static_cast<unsigned long long>(fl.scoreEjections));

            if (!args.perfettoPath.empty() && args.trace) {
                FleetPerfettoMeta meta;
                meta.bench = kBenchName;
                meta.label = std::string(sc.name) + "/" + k.name;
                meta.machines = fc.serverMachines;
                meta.balancers = fc.balancers;
                std::string path = perfettoRowPath(
                    args.perfettoPath,
                    std::string(sc.name) + "-" + k.name, 2);
                PerfettoStats st;
                if (writeFleetPerfettoTrace(path, bed.traceLog(), meta,
                                            &st))
                    std::printf("wrote %s (%llu traces, %llu flow "
                                "arrows%s)\n",
                                path.c_str(),
                                static_cast<unsigned long long>(
                                    st.tracesExported),
                                static_cast<unsigned long long>(
                                    st.flowPairs),
                                st.truncated ? ", truncated" : "");
                else
                    std::fprintf(stderr,
                                 "error: could not write %s\n",
                                 path.c_str());
            }

            const ExperimentConfig &cfg = fc.base;
            gates.invariant(r.invariants.violationCount == 0, cfg,
                            "invariant violations: %s",
                            r.invariants.summary().c_str());
            // Reconciliation holds with or without faults (vacuously
            // zero under --notrace).
            gates.invariant(fl.spanReconcileViolations == 0, cfg,
                            "%llu cores recorded more exec-span time than "
                            "they ran",
                            static_cast<unsigned long long>(
                                fl.spanReconcileViolations));
            if (!args.trace)
                continue;   // stitching gates need the recorder on
            gates.invariant(fl.tracesStarted == bed.load().started() &&
                                fl.tracesCompleted == finished,
                            cfg,
                            "trace accounting broke: started %llu != %llu "
                            "or completed %llu != %llu",
                            static_cast<unsigned long long>(
                                fl.tracesStarted),
                            static_cast<unsigned long long>(
                                bed.load().started()),
                            static_cast<unsigned long long>(
                                fl.tracesCompleted),
                            static_cast<unsigned long long>(finished));
            gates.invariant(fl.traceOrphans == 0 && fl.traceDuplicates == 0,
                            cfg,
                            "lossless stitching broke: %llu orphans, %llu "
                            "duplicates",
                            static_cast<unsigned long long>(
                                fl.traceOrphans),
                            static_cast<unsigned long long>(
                                fl.traceDuplicates));
            gates.invariant(unstitched == 0, cfg,
                            "%llu successful requests have no "
                            "server-machine span",
                            static_cast<unsigned long long>(unstitched));
            if (!sc.gateBurnBeforeEject)
                continue;
            // Burn-before-eject: the first kSloBurn detect stamp must
            // precede the degrade incident's eject stamp.
            Tick burnAt = 0;
            Tick ejectAt = 0;
            bool ejected = false;
            for (const Incident &inc : bed.incidents().incidents()) {
                if (inc.kind == IncidentKind::kSloBurn &&
                    inc.detected &&
                    (burnAt == 0 || inc.detectAt < burnAt))
                    burnAt = inc.detectAt;
                if (inc.kind == IncidentKind::kMachineDegrade &&
                    inc.ejected) {
                    ejected = true;
                    if (ejectAt == 0 || inc.ejectAt < ejectAt)
                        ejectAt = inc.ejectAt;
                }
            }
            gates.calibrated(fl.sloFastAlerts != 0 && burnAt != 0, cfg,
                             "gray degrade never fired a fast burn-rate "
                             "alert");
            gates.calibrated(ejected, cfg,
                             "scorer never ejected the gray machine "
                             "(calibration broke)");
            gates.calibrated(burnAt == 0 || !ejected || burnAt < ejectAt,
                             cfg,
                             "burn alert at %.2fms did not precede scorer "
                             "eject at %.2fms",
                             secondsFromTicks(burnAt) * 1000.0,
                             secondsFromTicks(ejectAt) * 1000.0);
        }
        std::printf("\n");
    }

    gates.printVerdict("fleet_trace");
    finishJson(args, json);
    return gates.status();
}
