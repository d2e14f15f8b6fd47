/**
 * @file
 * Chaos soak: a seeded randomized fault campaign against the fleet,
 * with per-incident MTTR gates and a gray-failure control experiment.
 *
 * Two parts, each on base-2.6.32 and Fastsocket against a 4-machine /
 * 2-balancer fleet:
 *
 *   - gray-control: one machine goes gray — its NIC adds a fixed
 *     800us to every egress packet and its CPU runs slightly slow, but
 *     every probe still answers *inside* the probe timeout. The same
 *     scenario runs under both health detectors. Gates assert the gap
 *     that motivates latency-aware scoring: the binary fall/rise
 *     detector ejects nothing (the fault is invisible to pass/fail
 *     probes), the scoring detector ejects the gray machine, and the
 *     incident funnel records detect -> eject -> recover.
 *
 *   - chaos-soak: a campaign of staggered incidents generated from
 *     --seed (steady gray degrades, flapping degrades, rst/blackhole
 *     crashes, lb-from-machine partitions, a balancer loss) composed
 *     with wire-level background faults (a loss burst and a SYN
 *     flood), run under the scoring detector. Invariants are checked
 *     continuously; the incident ledger reduces to MTTD / MTTR
 *     percentiles. Gates: zero invariant violations, request success
 *     >= 90% through the whole soak, at least one incident detected
 *     and ejected, and detect-to-eject p99 bounded.
 *
 * Flapping incidents are excluded from the detect-to-eject percentile
 * gate: their span is dominated by the fault's own oscillation (the
 * outlier streak breaks every healthy half-period), not by detector
 * latency. They still count toward availability and the funnel.
 *
 * Deterministic for a fixed --seed: the campaign text, every fault
 * fate, and all MTTR spans replay bit-identically (the CI smoke job
 * diffs two same-seed --json exports byte for byte).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fleet/fleet.hh"
#include "sim/rng.hh"
#include "trace/incident_log.hh"

namespace
{

using namespace fsim;

/** Detect-to-eject p99 gate, milliseconds. The scoring detector needs
 *  outlierRounds consecutive outlier rounds at a 2ms probe interval,
 *  so a healthy detector lands well under 10ms; 25ms catches one that
 *  dawdles without flaking on EWMA warm-up tails. */
const double kDetectEjectP99Ms = 25.0;

/** Campaign generator state: splitmix64, seeded from --seed only, so
 *  the plan text is independent of everything else in the run. */
struct CampaignRng
{
    std::uint64_t s;

    std::uint64_t next() { return splitmix64(s); }

    double
    uniform()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    double
    range(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    int
    pick(int n)
    {
        return static_cast<int>(next() % static_cast<std::uint64_t>(n));
    }
};

/**
 * Generate the soak campaign: one incident per time slot so every
 * fault gets clean air for detection and readmission before the next
 * one lands (the eject-fraction cap would otherwise turn an unlucky
 * draw into a vacuous availability gate). Slots 0..2 are pinned to a
 * steady gray degrade, a crash and a flapping degrade, so any seed
 * produces incidents the detect-to-eject gate can measure and every
 * campaign exercises all three degrade shapes.
 */
std::string
buildCampaign(std::uint64_t seed, double t0, double slotLen,
              int nIncidents, int nMachines)
{
    CampaignRng rng{seed * 0x9e3779b97f4a7c15ULL + 0xc8a05u};
    std::string plan;
    char buf[160];
    bool lbCrashUsed = false;
    for (int i = 0; i < nIncidents; ++i) {
        const double s =
            t0 + (i + rng.range(0.05, 0.15)) * slotLen;
        const double e = s + rng.range(0.45, 0.60) * slotLen;
        const int m = i % nMachines;
        int kind = i == 0   ? 0
                   : i == 1 ? 5
                   : i == 2 ? 3
                            : rng.pick(10);
        if (kind == 9 && lbCrashUsed)
            kind = 0;   // at most one balancer loss per campaign
        if (kind <= 2) {
            std::snprintf(buf, sizeof(buf),
                          "machine_degrade@%.4f-%.4f:target=%d,"
                          "factor=%.2f,rate=%.3f,jitter=%.0f",
                          s, e, m, rng.range(2.0, 4.0),
                          rng.range(0.03, 0.10),
                          rng.range(300.0, 900.0));
        } else if (kind <= 4) {
            std::snprintf(buf, sizeof(buf),
                          "machine_degrade@%.4f-%.4f:target=%d,"
                          "factor=%.2f,rate=%.3f,jitter=%.0f,"
                          "flap_ms=%.1f",
                          s, e, m, rng.range(2.5, 3.5),
                          rng.range(0.05, 0.12),
                          rng.range(400.0, 800.0),
                          rng.range(3.0, 6.0));
        } else if (kind <= 6) {
            std::snprintf(buf, sizeof(buf),
                          "machine_crash@%.4f-%.4f:target=%d,mode=%s",
                          s, e, m,
                          rng.pick(2) ? "blackhole" : "rst");
        } else if (kind <= 8) {
            std::snprintf(buf, sizeof(buf),
                          "net_partition@%.4f-%.4f:a=lb%d,b=m%d",
                          s, e, rng.pick(2), m);
        } else {
            lbCrashUsed = true;
            std::snprintf(buf, sizeof(buf),
                          "lb_crash@%.4f-%.4f:target=%d", s, e,
                          rng.pick(2));
        }
        if (!plan.empty())
            plan += ";";
        plan += buf;
    }
    return plan;
}

/** q-th percentile (q in (0, 1]) of @p v; 0 when empty. */
double
pct(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size());
    std::size_t idx = static_cast<std::size_t>(std::ceil(pos));
    idx = idx > 0 ? idx - 1 : 0;
    return v[std::min(idx, v.size() - 1)];
}

double
meanOf(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Incident-ledger reduction: funnel counts plus the three span
 *  populations the gates and the report consume. */
struct IncidentSpans
{
    std::vector<double> detectMs;   //!< inject -> first suspicion
    std::vector<double> ejectMs;    //!< detect -> eject, non-flap only
    std::vector<double> recoverMs;  //!< inject -> readmission
    int total = 0;
    int detected = 0;
    int ejected = 0;
    int recovered = 0;
};

IncidentSpans
reduceIncidents(const IncidentLog &log)
{
    IncidentSpans sp;
    for (const Incident &inc : log.incidents()) {
        ++sp.total;
        if (inc.detected) {
            ++sp.detected;
            if (inc.detectAt >= inc.injectAt)
                sp.detectMs.push_back(
                    secondsFromTicks(inc.detectAt - inc.injectAt) *
                    1000.0);
        }
        if (inc.ejected) {
            ++sp.ejected;
            const Tick from =
                inc.detected && inc.detectAt >= inc.injectAt
                    ? inc.detectAt
                    : inc.injectAt;
            if (inc.ejectAt >= from &&
                inc.kind != IncidentKind::kMachineFlap)
                sp.ejectMs.push_back(
                    secondsFromTicks(inc.ejectAt - from) * 1000.0);
        }
        if (inc.recovered) {
            ++sp.recovered;
            if (inc.recoverAt >= inc.injectAt)
                sp.recoverMs.push_back(
                    secondsFromTicks(inc.recoverAt - inc.injectAt) *
                    1000.0);
        }
    }
    return sp;
}

void
printSpans(const IncidentSpans &sp)
{
    std::printf("%-12s incidents %d: detected %d, ejected %d, "
                "recovered %d\n",
                "", sp.total, sp.detected, sp.ejected, sp.recovered);
    std::printf("%-12s mttd ms mean/p50/p99 %.2f/%.2f/%.2f   "
                "detect->eject ms mean/p50/p99 %.2f/%.2f/%.2f\n",
                "", meanOf(sp.detectMs), pct(sp.detectMs, 0.5),
                pct(sp.detectMs, 0.99), meanOf(sp.ejectMs),
                pct(sp.ejectMs, 0.5), pct(sp.ejectMs, 0.99));
    std::printf("%-12s inject->recover ms mean/p50/p99 "
                "%.2f/%.2f/%.2f\n",
                "", meanOf(sp.recoverMs), pct(sp.recoverMs, 0.5),
                pct(sp.recoverMs, 0.99));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Chaos soak: seeded fault campaigns with MTTR gates and a "
           "gray-failure control",
           "4 server machines behind 2 L4 balancers. Expected: the "
           "binary probe detector is blind to a calibrated gray "
           "degrade that the\nlatency-aware scorer ejects, and a "
           "randomized soak of degrades, flaps, crashes, partitions "
           "and wire faults holds availability\nwith bounded "
           "detect-to-eject MTTR and zero invariant violations.");

    const double warmup = args.quick ? 0.02 : 0.03;
    const double winLen = args.quick ? 0.015 : 0.03;
    const int nWin = 12;
    // Gray-control fault window: sub-windows 4..7 (same shape as
    // bench_fleet_resilience, so pre/post recovery windows exist).
    const double fs = warmup + 4 * winLen;
    const double fe = warmup + 8 * winLen;
    // Open-loop load well below the 4-machine fleet's capacity:
    // availability through the soak measures fault impact, not
    // saturation.
    const double steadyRate = args.quick ? 40'000.0 : 80'000.0;
    const std::uint64_t campaignSeed = args.seed ? args.seed : 1;

    // Soak campaign: incidents staggered across sub-windows 1..10,
    // leaving window 0 as a clean baseline and 11 for the last
    // readmission; two background wire faults overlay the middle.
    const int nIncidents = args.quick ? 5 : 8;
    const double slotLen = 9 * winLen / nIncidents;
    std::string soakPlan = buildCampaign(campaignSeed, warmup + winLen,
                                         slotLen, nIncidents,
                                         kFleetMachines);
    {
        char buf[120];
        std::snprintf(buf, sizeof(buf),
                      ";loss_burst@%.4f-%.4f:rate=0.03"
                      ";syn_flood@%.4f-%.4f:rate=%.0f",
                      warmup + 3 * winLen, warmup + 3.8 * winLen,
                      warmup + 6 * winLen, warmup + 6.8 * winLen,
                      args.quick ? 30'000.0 : 60'000.0);
        soakPlan += buf;
    }

    const std::string grayPlan =
        "machine_degrade@" +
        windowStr(fs, fe, ":target=1,factor=1.3,jitter=800", 4);


    Bench bench("chaos", args);
    Gates &gates = bench.gates;

    struct Run
    {
        const char *label;
        const std::string *plan;
        L4Balancer::HealthMode mode;
        bool soak;
    };
    const Run runs[] = {
        {"gray-binary", &grayPlan, L4Balancer::HealthMode::kBinary,
         false},
        {"gray-score", &grayPlan, L4Balancer::HealthMode::kScore,
         false},
        {"soak", &soakPlan, L4Balancer::HealthMode::kScore, true},
    };

    std::vector<BenchRow<FleetTestbed, IncidentSpans>> rows;
    for (const Run &run : runs)
        for (const KernelUnderTest &k : kBaseAndFast) {
            FleetConfig fc = fleetPreset(k.config, warmup, winLen, nWin);
            fc.healthMode = run.mode;
            fc.openLoopRate = steadyRate;
            if (run.soak)   // the soak's SYN flood needs the TCB reaper
                fc.base.machine.kernel.synRcvdJiffies = 300;
            BenchRow<FleetTestbed, IncidentSpans> row{
                std::string(run.label) + "/" + k.name, fc, *run.plan};
            row.read = [](FleetTestbed &bed) {
                return reduceIncidents(bed.incidents());
            };
            rows.push_back(std::move(row));
        }
    const auto done = runRows(bench, std::move(rows));

    std::size_t i = 0;
    for (const Run &run : runs) {
        std::printf("--- scenario %s ---\n", run.label);
        if (run.soak)
            std::printf("campaign (seed %llu): %s\n",
                        llu(campaignSeed), soakPlan.c_str());
        for (const KernelUnderTest &k : kBaseAndFast) {
            const ExperimentResult &r = done.results[i];
            const ExperimentConfig &cfg = done.configs[i];
            const IncidentSpans &sp = done.reads[i++];
            const FleetResult &fl = r.fleet;
            std::printf(
                "%-12s %s: success %.2f%%, ejections %llu "
                "(score %llu, capped %llu), readmissions %llu, "
                "degrades %llu, flaps %llu, partitions %llu "
                "(dropped %llu)  [%s]\n",
                k.name, fl.healthMode.c_str(),
                100.0 * fl.requestSuccessRatio,
                llu(fl.ejections), llu(fl.scoreEjections),
                llu(fl.ejectionsCapped), llu(fl.readmissions),
                llu(fl.degradesApplied), llu(fl.flapTransitions),
                llu(fl.partitionsArmed), llu(fl.partitionDropped),
                r.invariants.summary().c_str());
            printSpans(sp);

            const bool score = run.mode == L4Balancer::HealthMode::kScore;
            const double minSuccess = run.soak ? 0.90 : 0.97;
            gates.calibrated(fl.requestSuccessRatio >= minSuccess, cfg,
                             "request success %.2f%% under %s (< %.0f%%)",
                             100.0 * fl.requestSuccessRatio, run.label,
                             100.0 * minSuccess);
            gates.calibrated(run.soak || score || fl.ejections == 0, cfg,
                             "binary probes ejected %llu targets on the "
                             "gray degrade — the control is supposed to "
                             "be invisible to pass/fail probing",
                             llu(fl.ejections));
            gates.calibrated(!score || fl.scoreEjections != 0, cfg,
                             "scoring detector ejected nothing under %s "
                             "(binary-vs-score gap not demonstrated)",
                             run.label);
            gates.calibrated(!score || (sp.detected != 0 &&
                                        (run.soak || sp.recovered != 0)),
                             cfg,
                             "incident funnel incomplete under %s (%d "
                             "detected, %d recovered)",
                             run.label, sp.detected, sp.recovered);
            gates.calibrated(!run.soak || !sp.ejectMs.empty(), cfg,
                             "soak produced no measurable detect->eject "
                             "span");
            gates.calibrated(!run.soak || sp.ejectMs.empty() ||
                                 pct(sp.ejectMs, 0.99) <= kDetectEjectP99Ms,
                             cfg, "detect->eject p99 %.2fms exceeds %.0fms",
                             pct(sp.ejectMs, 0.99), kDetectEjectP99Ms);
        }
        std::printf("\n");
    }

    return bench.finish(/*verdict=*/true);
}
