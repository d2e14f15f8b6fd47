/**
 * @file
 * Overload bench: collapse vs shed under open-loop load beyond capacity.
 *
 * For each kernel (base-2.6.32, fastsocket) the bench first measures
 * closed-loop capacity, then drives an *open-loop* stepped ramp up to
 * 3x that capacity twice:
 *
 *   - unprotected: a deep accept queue (somaxconn 8192) and no overload
 *     control. Above capacity the queue fills with requests whose
 *     clients give up (50ms) long before the server reaches them, so
 *     the server burns its cycles serving the dead — goodput collapses
 *     (congestion collapse via receive livelock + stale queues);
 *   - protected: the src/overload stack armed — a SYN ingress gate that
 *     refuses excess connections before any handshake work, a softirq
 *     backlog budget, accept-queue pressure watermarks, CoDel-style
 *     queue-deadline shedding, brownout degradation, and a health
 *     priority class. Dropping early keeps every *served* connection
 *     fresh, so goodput holds near capacity and the latency tail stays
 *     bounded.
 *
 * Pass criteria (exit != 0 on violation; the four calibrated ones are
 * reported but not enforced when --overload or --faults overrides the
 * built-in setup):
 *   - unprotected goodput at 3x offered < 50% of capacity (the bench
 *     must reproduce the collapse, or the protection gate is vacuous);
 *   - protected goodput at 3x offered >= 85% of capacity;
 *   - protected p99 connect-to-response latency at 3x <= 25ms;
 *   - health probes through the protected stack succeed at >= 90%
 *     (of probes with a determined outcome; the priority mark must
 *     carry them past every shedding layer);
 *   - zero invariant violations in every run (checkLevel=periodic).
 */

#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace fsim;

struct StepRow
{
    double mult = 0.0;      //!< offered-rate multiplier vs capacity
    double offered = 0.0;   //!< conns/s actually launched
    double goodput = 0.0;   //!< completions/s
    Tick p99 = 0;           //!< window p99 connect-to-response latency
    std::uint64_t shed = 0;
    std::uint64_t gateDrops = 0;
    std::uint64_t backlogDrops = 0;
    std::uint64_t degraded = 0;
};

/** What a ramp row's drive step measured besides its final collect(). */
struct RampOutcome
{
    std::vector<StepRow> steps;
    double finalGoodput = 0.0;
    Tick finalP99 = 0;
    double healthRate = 0.0;    //!< probe completions / probe starts
    double normalRate = 0.0;    //!< same for non-probe connections
};

/** Drive step of a ramp row: the stepped open-loop ramp, then a drain;
 *  yields the final collect(). */
void
driveRamp(Testbed &bed, RowOutput<RampOutcome> &rowOut, double capacity,
          const std::vector<double> &mults, Tick warm_ticks,
          Tick step_ticks, Tick drain_ticks)
{
    RampOutcome &out = rowOut.read;
    HttpLoad &load = bed.load();
    EventQueue &eq = bed.eventQueue();
    const KernelStats &ks = bed.machine().kernel().stats();
    AdmissionController *adm = bed.admission();

    load.startOpenLoop(capacity * mults.front());
    bed.runUntilChecked(eq.now() + warm_ticks);

    for (double m : mults) {
        load.setOpenLoopRate(capacity * m);
        bed.markWindows();
        std::uint64_t s0 = load.started();
        std::uint64_t c0 = load.completed();
        std::uint64_t shed0 = adm ? adm->shed() : 0;
        std::uint64_t deg0 = adm ? adm->degraded() : 0;
        std::uint64_t gate0 = ks.synGateDropped;
        std::uint64_t drop0 = ks.backlogDropped;
        bed.runUntilChecked(eq.now() + step_ticks);

        StepRow row;
        row.mult = m;
        double sec = secondsFromTicks(step_ticks);
        row.offered = static_cast<double>(load.started() - s0) / sec;
        row.goodput = static_cast<double>(load.completed() - c0) / sec;
        row.p99 = load.latencyPercentileSinceMark(0.99);
        row.shed = (adm ? adm->shed() : 0) - shed0;
        row.degraded = (adm ? adm->degraded() : 0) - deg0;
        row.gateDrops = ks.synGateDropped - gate0;
        row.backlogDrops = ks.backlogDropped - drop0;
        out.steps.push_back(row);
    }

    // Drain: stop launching and run one client give-up period further,
    // so every connection reaches a determined outcome (response or
    // timeout). Without this, conns launched near run end are neither
    // successes nor failures and the rates below read vacuously high.
    load.stopOpenLoop();
    bed.runUntilChecked(eq.now() + drain_ticks);

    rowOut.yield(bed.collect());
    out.finalGoodput = out.steps.back().goodput;
    out.finalP99 = out.steps.back().p99;
    // Success rates over connections with a *determined* outcome: a
    // probe launched milliseconds before the run ends is neither a
    // success nor a failure (a real failure shows up as a give-up
    // timeout or a shed within the run).
    std::uint64_t hc = load.healthCompleted();
    std::uint64_t hf = load.healthFailed();
    if (hc + hf > 0)
        out.healthRate = static_cast<double>(hc) /
                         static_cast<double>(hc + hf);
    std::uint64_t nc = load.completed() - hc;
    std::uint64_t nf = load.failed() - hf;
    if (nc + nf > 0)
        out.normalRate = static_cast<double>(nc) /
                         static_cast<double>(nc + nf);
}

void
printSteps(const char *tag, const RampOutcome &o)
{
    std::printf("  %-12s mult  offered/s  goodput/s   p99(ms)  "
                "shed    degraded  gate-drops  budget-drops\n", tag);
    for (const StepRow &s : o.steps)
        std::printf("  %-12s %4.1f  %8.0f  %8.0f  %8.2f  %-7llu %-9llu"
                    " %-11llu %llu\n",
                    "", s.mult, s.offered, s.goodput,
                    1e3 * secondsFromTicks(s.p99),
                    llu(s.shed), llu(s.degraded), llu(s.gateDrops),
                    llu(s.backlogDrops));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Overload: collapse vs shed beyond saturation",
           "Open-loop ramp to 3x measured capacity. Unprotected, a deep "
           "accept queue turns every\nserved connection stale (client "
           "gave up at 50ms) and goodput collapses; with the\n"
           "src/overload stack armed, stale work is shed on accept and "
           "goodput holds.");

    const Tick warm = ticksFromSeconds(args.quick ? 0.012 : 0.025);
    const Tick step = ticksFromSeconds(args.quick ? 0.012 : 0.025);
    const std::vector<double> mults = {1.0, 1.5, 2.0, 2.5, 3.0, 3.0};
    const Tick clientGiveUp = ticksFromUsec(50000);
    const Tick drain = clientGiveUp + ticksFromUsec(10000);
    const Tick p99Bound = ticksFromUsec(25000);

    Bench bench("overload", args);
    Gates &gates = bench.gates;

    for (const KernelUnderTest &k : kBaseAndFast) {
        std::printf("--- %s ---\n", k.name);

        ExperimentConfig base;
        base.app = AppKind::kNginx;
        base.machine.cores = args.quick ? 4 : 8;
        base.machine.kernel = k.config;

        // Phase 1: closed-loop capacity (the ramp's yardstick).
        BenchRow<> capRow{std::string("capacity/") + k.name, base};
        capRow.cfg.concurrencyPerCore = args.quick ? 100 : 250;
        capRow.cfg.warmupSec = args.quick ? 0.015 : 0.03;
        capRow.cfg.measureSec = args.quick ? 0.04 : 0.08;
        const auto cap = runRows(bench, std::vector{capRow});
        const double capacity = cap.results[0].cps;
        std::printf("  capacity (closed loop): %.0f conns/s  [%s]\n",
                    capacity, cap.results[0].invariants.summary().c_str());
        if (!gates.invariant(capacity > 0.0, cap.configs[0],
                             "capacity measured as zero"))
            continue;

        // Phase 2: open-loop ramp, shared shape for both variants.
        ExperimentConfig ramp = base;
        ramp.listenBacklog = 8192;      // deep queue: the collapse fuel
        ramp.clientTimeout = clientGiveUp;
        ramp.clientHealthEvery = 20;    // 5% of conns are health probes
        ramp.checkLevel = CheckLevel::kPeriodic;
        const auto drive = [&](Testbed &bed, RowOutput<RampOutcome> &out) {
            driveRamp(bed, out, capacity, mults, warm, step, drain);
        };
        BenchRow<Testbed, RampOutcome> unRow{
            std::string("unprotected/") + k.name, ramp};
        unRow.overloadOff = true;
        unRow.drive = drive;
        BenchRow<Testbed, RampOutcome> prRow{
            std::string("protected/") + k.name, ramp, "", kProtectSpec};
        prRow.drive = drive;
        const auto ramps = runRows(bench, std::vector{unRow, prRow});
        const RampOutcome &un = ramps.reads[0];
        const RampOutcome &pr = ramps.reads[1];
        const ExperimentResult &prRes = ramps.results[1];
        const ExperimentConfig &uncfg = ramps.configs[0];
        const ExperimentConfig &prcfg = ramps.configs[1];

        printSteps("unprotected", un);
        std::printf("  %-12s final goodput %.0f/s (%.0f%% of capacity), "
                    "p99 %.2fms, health %.0f%%  [%s]\n", "",
                    un.finalGoodput, 100.0 * un.finalGoodput / capacity,
                    1e3 * secondsFromTicks(un.finalP99),
                    100.0 * un.healthRate,
                    ramps.results[0].invariants.summary().c_str());
        printSteps("protected", pr);
        std::printf("  %-12s final goodput %.0f/s (%.0f%% of capacity), "
                    "p99 %.2fms, health %.0f%% (normal %.0f%%), "
                    "degraded %llu  [%s]\n", "",
                    pr.finalGoodput, 100.0 * pr.finalGoodput / capacity,
                    1e3 * secondsFromTicks(pr.finalP99),
                    100.0 * pr.healthRate, 100.0 * pr.normalRate,
                    llu(prRes.overload.servedDegraded),
                    prRes.invariants.summary().c_str());

        // Gates.
        gates.calibrated(un.finalGoodput < 0.5 * capacity, uncfg,
                         "unprotected goodput at 3x is %.0f%% of "
                         "capacity (expected < 50%%: no collapse "
                         "reproduced)",
                         100.0 * un.finalGoodput / capacity);
        gates.calibrated(pr.finalGoodput >= 0.85 * capacity, prcfg,
                         "protected goodput at 3x is %.0f%% of capacity "
                         "(expected >= 85%%)",
                         100.0 * pr.finalGoodput / capacity);
        gates.calibrated(pr.finalP99 <= p99Bound, prcfg,
                         "protected p99 at 3x is %.2fms (expected <= "
                         "%.0fms)",
                         1e3 * secondsFromTicks(pr.finalP99),
                         1e3 * secondsFromTicks(p99Bound));
        gates.calibrated(pr.healthRate >= 0.9, prcfg,
                         "health probes completed at %.0f%% through the "
                         "protected stack (expected >= 90%%)",
                         100.0 * pr.healthRate);
        std::printf("\n");
    }

    return bench.finish(/*verdict=*/true);
}
