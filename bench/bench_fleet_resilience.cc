/**
 * @file
 * Fleet resilience bench: N machines behind an L4 balancer tier under
 * orchestrated faults.
 *
 * Four scenarios, each on base-2.6.32 and Fastsocket, against a
 * 4-machine / 2-balancer fleet (consistent-hash steering with
 * bounded-load fallback, wire-level SYN health probes, full-NAT
 * forwarding over latency/bandwidth-modeled links):
 *
 *   - rolling-restart: a diurnal open-loop load curve while every
 *     server machine is drained, stopped, restarted and readmitted in
 *     sequence. Gates: request success ratio >= 99%, zero un-drained
 *     connection loss, every machine restarted exactly once.
 *   - machine-crash: one machine blackholes mid-run (cable pull) and
 *     comes back. Gates: the balancers eject it via probe failures and
 *     readmit it after restart; goodput recovers to >= 90% of the
 *     pre-fault level.
 *   - lb-failover: one balancer dies; the peer adopts its VIP after
 *     the takeover delay. Gates: >= 1 VIP takeover, goodput recovery
 *     >= 90%.
 *   - overload-cascade: an open-loop spike to far beyond fleet
 *     capacity with per-machine admission control armed. Gates: the
 *     shedding stays contained in the server tier — the balancer
 *     tier's flow table never overflows (shed_capacity == 0) and the
 *     health-probe view never loses the whole fleet
 *     (shed_no_backend == 0) — and goodput recovers after the spike.
 *
 * Every run's invariants must hold (checkLevel=periodic), and the
 * whole bench is deterministic for a fixed --seed: the CI smoke job
 * diffs two same-seed --json exports byte for byte.
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
    std::string plan;           //!< fleet fault plan, absolute sim times
    double openLoopRate = 0.0;  //!< 0 = closed loop
    double spikeRate = 0.0;     //!< mid-run setOpenLoopRate target
    bool diurnal = false;       //!< shape the open loop per sub-window
    bool overloadStack = false; //!< arm kProtectSpec on every machine
    /** @name Gates */
    /** @{ */
    bool gateSuccess99 = false;
    bool gateRecovery = false;
    bool gateEjectReadmit = false;
    bool gateTakeover = false;
    bool gateContainment = false;
    bool gateAllRestarted = false;
    /** @} */
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Fleet resilience: rolling restarts, crashes, failover, "
           "cascade containment",
           "4 server machines behind 2 L4 balancers (consistent hash + "
           "bounded load + health probes).\nExpected: planned drains "
           "lose nothing, crashed machines are ejected and readmitted, "
           "a dead balancer's VIP fails over,\nand server-tier "
           "overload shedding never cascades into the balancer tier.");

    // 12 sub-windows; disruptive faults span sub-windows 4..7 (the
    // rolling sweep starts at window 2 so 4 drain+down cycles fit).
    const double warmup = args.quick ? 0.02 : 0.03;
    const double winLen = args.quick ? 0.015 : 0.03;
    const int nWin = 12;
    const double fs = warmup + 4 * winLen;
    const double fe = warmup + 8 * winLen;
    const double rollStart = warmup + 2 * winLen;
    // Aggregate open-loop rates: the steady rate keeps the 4-machine
    // fleet comfortably below saturation; the spike is sized to push
    // every machine's admission stack deep into shedding.
    const double steadyRate = args.quick ? 40'000.0 : 80'000.0;
    // The spike must clear the 4-machine fleet's capacity (~300-400K/s
    // at 4 cores each) by a wide margin or the cascade gate is vacuous.
    const double spikeRate = args.quick ? 900'000.0 : 1'200'000.0;

    const Scenario scenarios[] = {
        {"rolling-restart",
         "rolling_restart@" +
             windowStr(rollStart, rollStart + 0.001,
                       ":drain_ms=15,down_ms=5"),
         steadyRate, 0.0, /*diurnal=*/true, false,
         /*gateSuccess99=*/true, false, false, false, false,
         /*gateAllRestarted=*/true},
        {"machine-crash",
         "machine_crash@" + windowStr(fs, fe, ":target=1,mode=blackhole"),
         0.0, 0.0, false, false,
         false, /*gateRecovery=*/true, /*gateEjectReadmit=*/true,
         false, false, false},
        {"lb-failover",
         "lb_crash@" + windowStr(fs, fe, ":target=0"),
         0.0, 0.0, false, false,
         false, /*gateRecovery=*/true, false, /*gateTakeover=*/true,
         false, false},
        {"overload-cascade", "",
         steadyRate, spikeRate, false, /*overloadStack=*/true,
         false, /*gateRecovery=*/true, false, false,
         /*gateContainment=*/true, false},
    };

    Bench bench("fleet_resilience", args);
    Gates &gates = bench.gates;

    std::vector<BenchRow<FleetTestbed>> rows;
    for (const Scenario &sc : scenarios)
        for (const KernelUnderTest &k : kBaseAndFast) {
            FleetConfig fc = fleetPreset(k.config, warmup, winLen, nWin);
            fc.openLoopRate = sc.openLoopRate;
            BenchRow<FleetTestbed> row{
                std::string(sc.name) + "/" + k.name, fc, sc.plan,
                sc.overloadStack ? kProtectSpec : ""};
            // Shape the open loop before run(): a stepped diurnal
            // curve for the rolling restart, a square spike over the
            // fault window for the cascade scenario.
            row.drive = [&](FleetTestbed &bed, RowOutput<NoRead> &out) {
                if (sc.diurnal) {
                    static const double curve[] = {0.6, 0.8, 1.0, 1.2,
                                                   1.0, 0.8};
                    for (int w = 0; w < nWin; ++w) {
                        const double mult = curve[w % 6];
                        bed.eventQueue().schedule(
                            ticksFromSeconds(warmup + w * winLen),
                            [&bed, mult, steadyRate] {
                                bed.load().setOpenLoopRate(steadyRate * mult);
                            });
                    }
                }
                if (sc.spikeRate > 0.0) {
                    bed.eventQueue().schedule(
                        ticksFromSeconds(fs), [&bed, &sc] {
                            bed.load().setOpenLoopRate(sc.spikeRate);
                        });
                    bed.eventQueue().schedule(
                        ticksFromSeconds(fe), [&bed, &sc] {
                            bed.load().setOpenLoopRate(sc.openLoopRate);
                        });
                }
                out.yield(bed.run());
            };
            rows.push_back(std::move(row));
        }
    const auto done = runRows(bench, std::move(rows));

    std::size_t i = 0;
    for (const Scenario &sc : scenarios) {
        std::printf("--- scenario %s ---\n", sc.name);
        for (const KernelUnderTest &k : kBaseAndFast) {
            const ExperimentResult &r = done.results[i];
            const ExperimentConfig &cfg = done.configs[i++];
            std::printf("%-12s goodput/s by sub-window:", k.name);
            for (const LockWindow &w : r.lockWindows)
                std::printf(" %5.0fK", w.goodput / 1000.0);
            std::printf("\n");
            const FleetResult &fl = r.fleet;
            std::printf(
                "%-12s fleet: success %.2f%%, flows %llu/%llu "
                "(undrained %llu), ejections %llu, readmissions %llu, "
                "takeovers %llu, shed cap/nb %llu/%llu\n",
                "", 100.0 * fl.requestSuccessRatio,
                llu(fl.flowsRetired), llu(fl.flowsCreated),
                llu(fl.undrainedFlows), llu(fl.ejections),
                llu(fl.readmissions), llu(fl.vipTakeovers),
                llu(fl.shedCapacity), llu(fl.shedNoBackend));

            // Windows 0..3 precede the fault (0 discarded as ramp),
            // 4..7 overlap it, 8..11 follow it (8 discarded as drain).
            double pre = meanGoodput(r.lockWindows, 1, 3);
            double post = meanGoodput(r.lockWindows, 9, 11);
            double ratio = pre > 0.0 ? post / pre : 0.0;
            std::printf("%-12s pre %.0fK  post %.0fK  recovery "
                        "%.0f%%  [%s]\n",
                        "", pre / 1000.0, post / 1000.0, 100.0 * ratio,
                        r.invariants.summary().c_str());

            gates.calibrated(!sc.gateSuccess99 ||
                                 fl.requestSuccessRatio >= 0.99,
                             cfg,
                             "request success %.2f%% under rolling "
                             "restart (< 99%%)",
                             100.0 * fl.requestSuccessRatio);
            gates.calibrated(!sc.gateSuccess99 || fl.undrainedFlows == 0,
                             cfg,
                             "%llu un-drained flows lost during planned "
                             "restarts",
                             llu(fl.undrainedFlows));
            gates.calibrated(!sc.gateAllRestarted ||
                                 fl.restarts == std::uint64_t{kFleetMachines},
                             cfg,
                             "rolling restart covered %llu of %d machines",
                             llu(fl.restarts), kFleetMachines);
            gates.calibrated(!sc.gateRecovery || ratio >= 0.9, cfg,
                             "post-fault goodput %.0f%% of pre-fault "
                             "(< 90%%)",
                             100.0 * ratio);
            gates.calibrated(!sc.gateEjectReadmit ||
                                 (fl.ejections != 0 &&
                                  fl.readmissions != 0),
                             cfg,
                             "crash not tracked by health probes (%llu "
                             "ejections, %llu readmissions)",
                             llu(fl.ejections), llu(fl.readmissions));
            gates.calibrated(!sc.gateTakeover || fl.vipTakeovers != 0, cfg,
                             "balancer loss produced no VIP takeover");
            gates.calibrated(!sc.gateContainment ||
                                 (fl.shedCapacity == 0 &&
                                  fl.shedNoBackend == 0),
                             cfg,
                             "overload cascaded into the balancer tier "
                             "(shed_capacity=%llu, shed_no_backend=%llu)",
                             llu(fl.shedCapacity), llu(fl.shedNoBackend));
        }
        std::printf("\n");
    }

    return bench.finish(/*verdict=*/true);
}
