/**
 * @file
 * DES-core throughput bench: how fast does the simulator itself run?
 *
 * Two families of rows, all wall-clock timed (the one bench whose JSON
 * rows carry the nondeterministic sim_core wall fields):
 *
 *  - fig4-nginx / million-conn: full-testbed runs of the paper
 *    workloads (short-lived nginx churn; open-loop long-lived ramp per
 *    bench_million_conn), reporting sim-events/sec and wall-seconds-
 *    per-simulated-second — the numbers CI tracks so a core regression
 *    shows up as a slower simulator even when every fingerprint still
 *    matches. Each run also RECORDS its EventQueue op stream
 *    (EventQueue::recordOps): the exact sequence of inter-event
 *    horizons and schedule/dispatch interleavings the workload applied.
 *
 *  - replay-*-heap / replay-*-ladder: those recorded op streams
 *    replayed verbatim through the ladder EventQueue and through the
 *    frozen pre-ladder binary-heap queue (tests/reference_event_queue).
 *    The million-conn replay additionally seeds the documented resting
 *    state of that workload — a million parked think-timer events ~30
 *    simulated seconds out — before the churn stream runs, exactly the
 *    population the full-scale ramp accumulates (http_load parks
 *    longLivedThink timers straight into the EventQueue). The printed
 *    speedup on that replay is the tentpole claim: the ladder core must
 *    hold >= 3x the heap core's events/sec, because its per-op cost is
 *    independent of the parked mass while the heap pays O(log n) sift
 *    steps and cache misses across a ~48MB array for every op.
 *
 * Wall-clock numbers vary by machine; tools/bench_compare.py gates
 * them with a generous threshold rather than byte-diffing.
 *
 * Not on runRows: sequential wall timing is what this bench measures.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "reference_event_queue.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using namespace fsim;

/** Where the million-conn parked mass lives: ~30 simulated seconds
 *  out (cfg.longLivedThink in bench_million_conn), spread over 1s. */
constexpr Tick kParkHorizon = 75'000'000'000ull;
constexpr Tick kParkSpread = 2'500'000'000ull;
/** Recorded deltas at or past this are "parked-class" (think timers,
 *  multi-second timeouts): they never come due inside a replay, so the
 *  churn-balance guard must not count them as dispatchable. */
constexpr Tick kFarHorizon = 25'000'000'000ull;

double
wallSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Stand-in for the wire's delivery capture [this, Packet] = 8 + 48
 * bytes — the closure EventFn's 56-byte budget was sized for. In the
 * pre-ladder core this capture exceeded std::function's 16-byte SBO,
 * so every packet delivery was a malloc/free round trip; about half of
 * all simulated events are wire deliveries (measured 49.7% on the
 * million-conn window), and the replay reproduces that mix.
 */
struct WirePayload
{
    std::uint64_t *sink;
    unsigned char packet[48];
};

/** Recorded deltas in [2^16, 2^20) are the wire-delay band (50us =
 *  125k ticks one way): those ops replay with the fat wire capture,
 *  everything else with a pointer-sized one. 48.2% of the recorded
 *  million-conn ops land in the band, matching the measured delivery
 *  share. */
inline bool
wireBand(Tick delta)
{
    return delta >= (Tick{1} << 16) && delta < (Tick{1} << 20);
}

struct RawOut
{
    std::uint64_t executed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t pendingEnd = 0;
    Tick nowEnd = 0;
    double wall = 0.0;
};

/**
 * Replay a recorded op stream through queue @p q, looping over the
 * trace until at least @p target_ops schedules have been issued. With
 * @p parked > 0 the million-conn resting state is seeded first
 * (untimed). The runs-counts in the trace refer to the recording run's
 * pending population; at replay-window edges that population differs,
 * so dispatches are capped by the number of dispatchable (short-
 * horizon) events actually outstanding — the cap is deterministic and
 * identical for both queues, keeping the two replays op-for-op equal.
 */
template <typename Queue>
RawOut
rawReplay(Queue &q, std::uint64_t parked,
          const std::vector<EventQueue::SchedOp> &ops,
          std::uint64_t target_ops)
{
    std::uint64_t fired = 0;
    Rng rng(0x5eedc0de);
    for (std::uint64_t i = 0; i < parked; ++i)
        q.schedule(q.now() + kParkHorizon + rng.range(kParkSpread),
                   [&fired] { ++fired; });

    std::uint64_t scheduled = parked;
    std::uint64_t churn = 0;   // dispatchable events outstanding
    const auto t0 = std::chrono::steady_clock::now();
    while (scheduled - parked < target_ops) {
        for (const EventQueue::SchedOp &op : ops) {
            std::uint64_t runs = op.runs;
            if (runs > churn)
                runs = churn;
            for (std::uint64_t r = 0; r < runs; ++r)
                q.runOne();
            churn -= runs;
            if (wireBand(op.delta)) {
                WirePayload p{&fired, {}};
                q.schedule(q.now() + op.delta, [p] { ++*p.sink; });
            } else {
                q.schedule(q.now() + op.delta, [&fired] { ++fired; });
            }
            ++scheduled;
            if (op.delta < kFarHorizon)
                ++churn;
        }
    }
    RawOut out;
    out.wall = wallSince(t0);
    out.executed = q.executed();
    out.scheduled = scheduled;
    out.pendingEnd = q.pending();
    out.nowEnd = q.now();
    if (fired != out.executed)
        std::fprintf(stderr, "BUG: fired %llu != executed %llu\n",
                     static_cast<unsigned long long>(fired),
                     static_cast<unsigned long long>(out.executed));
    return out;
}

/**
 * Race both cores on one recorded stream: @p reps alternating
 * repetitions per core, keeping each core's best wall time. The
 * deterministic outputs (executed/scheduled/pending/now) are identical
 * across reps by construction; min-wall alternation sheds scheduler
 * noise that a single back-to-back pair of runs would bake into the
 * speedup ratio.
 */
void
raceReplays(std::uint64_t parked,
            const std::vector<EventQueue::SchedOp> &ops,
            std::uint64_t target_ops, int reps, RawOut *heapOut,
            RawOut *ladderOut)
{
    for (int i = 0; i < reps; ++i) {
        {
            ReferenceEventQueue q;
            RawOut o = rawReplay(q, parked, ops, target_ops);
            if (i == 0)
                *heapOut = o;
            else if (o.wall < heapOut->wall)
                heapOut->wall = o.wall;
        }
        {
            EventQueue q;
            RawOut o = rawReplay(q, parked, ops, target_ops);
            if (i == 0)
                *ladderOut = o;
            else if (o.wall < ladderOut->wall)
                ladderOut->wall = o.wall;
        }
    }
}

/** Row assembly for the replay rows (no testbed behind them). */
ExperimentResult
rawResult(const RawOut &o)
{
    ExperimentResult r;
    r.simEventsRun = o.executed;
    r.simEventsScheduled = o.scheduled;
    r.simTicks = o.nowEnd;
    r.simWallSeconds = o.wall;
    return r;
}

/**
 * Run one wall-timed testbed window, recording its op stream into
 * @p trace. The trace vector is pre-reserved so recording appends do
 * not reallocate inside the timed window (the push_back itself is a
 * couple of ns against ~us-scale simulated events).
 */
ExperimentResult
timedWindow(Testbed &bed, double measure_sec,
            std::vector<EventQueue::SchedOp> *trace)
{
    bed.markWindows();
    const Tick limit =
        bed.eventQueue().now() + ticksFromSeconds(measure_sec);
    if (trace) {
        trace->reserve(8'000'000);
        bed.eventQueue().recordOps(trace);
    }
    const auto t0 = std::chrono::steady_clock::now();
    bed.runUntilChecked(limit);
    const double wall = wallSince(t0);
    bed.eventQueue().recordOps(nullptr);
    ExperimentResult r = bed.collect();
    r.simWallSeconds = wall;
    return r;
}

void
printReplayRow(TextTable &t, const char *label, const RawOut &o)
{
    char ev[32], wall[32], mev[32];
    std::snprintf(ev, sizeof(ev), "%llu",
                  static_cast<unsigned long long>(o.executed));
    std::snprintf(wall, sizeof(wall), "%.3f", o.wall);
    std::snprintf(mev, sizeof(mev), "%.2f",
                  static_cast<double>(o.executed) / o.wall / 1e6);
    t.row({label, ev, wall, mev});
}

bool
agree(const char *what, const RawOut &a, const RawOut &b)
{
    if (a.executed == b.executed && a.scheduled == b.scheduled &&
        a.pendingEnd == b.pendingEnd && a.nowEnd == b.nowEnd)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s replay disagrees (executed %llu vs %llu, "
                 "pending %llu vs %llu, now %llu vs %llu)\n",
                 what, static_cast<unsigned long long>(a.executed),
                 static_cast<unsigned long long>(b.executed),
                 static_cast<unsigned long long>(a.pendingEnd),
                 static_cast<unsigned long long>(b.pendingEnd),
                 static_cast<unsigned long long>(a.nowEnd),
                 static_cast<unsigned long long>(b.nowEnd));
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);
    if (!args.perfettoPath.empty()) {
        // The testbed rows run untraced and the replay rows have no
        // testbed: no row keeps span traces to export.
        std::fprintf(stderr,
                     "%s: --perfetto: this bench records no span traces "
                     "(its rows run untraced or replay op streams)\n",
                     argv[0]);
        return 2;
    }

    const std::uint64_t replay_ops =
        args.quick ? 2'500'000 : 4'000'000;
    // The million-conn replay is a million parked events even in
    // --quick: the population is the workload's name and the heap's
    // handicap; only the churn volume shrinks.
    const std::uint64_t parked = 1'000'000;

    BenchJsonReport json("sim_core");
    ExperimentConfig raw_cfg;   // placeholder config for replay rows

    // --- testbed runs (recording their op streams) ------------------
    std::vector<EventQueue::SchedOp> fig4_trace, mc_trace;
    TextTable tb;
    tb.header({"workload", "sim events", "Mev/s", "wall/sim-sec"});

    auto addTestbedRow = [&](const char *label,
                             const ExperimentConfig &cfg,
                             const ExperimentResult &r) {
        json.addRow(label, cfg, r);
        const double eps = static_cast<double>(r.simEventsRun) /
                           r.simWallSeconds;
        const double wall_per_sim =
            r.simWallSeconds / secondsFromTicks(r.simTicks);
        char ev[32], mev[32], wps[32];
        std::snprintf(ev, sizeof(ev), "%llu",
                      static_cast<unsigned long long>(r.simEventsRun));
        std::snprintf(mev, sizeof(mev), "%.2f", eps / 1e6);
        std::snprintf(wps, sizeof(wps), "%.3f", wall_per_sim);
        tb.row({label, ev, mev, wps});
    };

    std::printf("DES-core throughput: testbed workloads (recording "
                "op streams)\n\n");
    {
        // Paper fig4(a) shape: short-lived keep-alive-off churn.
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 4;
        cfg.machine.kernel = KernelConfig::fastsocket();
        cfg.checkLevel = CheckLevel::kOff;
        cfg.concurrencyPerCore = args.quick ? 100 : 250;
        cfg.warmupSec = 0.0;
        cfg.measureSec = 0.0;
        args.apply(cfg);
        cfg.machine.traceEnabled = false;   // raw-speed contract

        Testbed bed(cfg);
        bed.startLoad();
        bed.runUntilChecked(ticksFromSeconds(args.quick ? 0.02 : 0.05));
        ExperimentResult r =
            timedWindow(bed, args.quick ? 0.05 : 0.15, &fig4_trace);
        addTestbedRow("fig4-nginx", cfg, r);
    }
    {
        // Million-conn shape per bench_million_conn: open-loop launch
        // ramp, 90% long-lived connections parking 30s think timers.
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 24;
        cfg.machine.kernel = KernelConfig::fastsocket();
        cfg.checkLevel = CheckLevel::kOff;
        cfg.longLivedPermille = 900;
        cfg.longLivedRequests = 2;
        cfg.longLivedThink = ticksFromSeconds(30.0);
        cfg.listenBacklog = 1024;
        cfg.machine.kernel.synBacklog = 4096;
        cfg.warmupSec = 0.0;
        cfg.measureSec = 0.0;
        args.apply(cfg);
        cfg.machine.traceEnabled = false;

        Testbed bed(cfg);
        bed.load().startOpenLoop(args.quick ? 150e3 : 250e3);
        bed.runUntilChecked(ticksFromSeconds(args.quick ? 0.10 : 0.30));
        ExperimentResult r =
            timedWindow(bed, args.quick ? 0.05 : 0.10, &mc_trace);
        addTestbedRow("million-conn", cfg, r);
    }
    tb.print();

    if (fig4_trace.empty() || mc_trace.empty()) {
        std::fprintf(stderr,
                     "FAIL: empty op trace (fig4 %zu ops, million-conn "
                     "%zu ops)\n",
                     fig4_trace.size(), mc_trace.size());
        return 1;
    }
    std::printf("\nrecorded op streams: fig4 %zu ops, million-conn "
                "%zu ops\n\n",
                fig4_trace.size(), mc_trace.size());

    // --- recorded-stream replays: ladder vs frozen heap -------------
    std::printf("replaying recorded streams through both cores "
                "(%llu churn ops each)\n\n",
                static_cast<unsigned long long>(replay_ops));

    TextTable raw;
    raw.header({"replay", "events", "wall s", "Mev/s"});

    constexpr int kReps = 9;
    RawOut f_h, f_l, m_h, m_l;
    raceReplays(0, fig4_trace, replay_ops, kReps, &f_h, &f_l);
    raceReplays(parked, mc_trace, replay_ops, kReps, &m_h, &m_l);

    json.addRow("replay-fig4-heap", raw_cfg, rawResult(f_h));
    printReplayRow(raw, "fig4 / binary heap", f_h);
    json.addRow("replay-fig4-ladder", raw_cfg, rawResult(f_l));
    printReplayRow(raw, "fig4 / ladder", f_l);
    json.addRow("replay-million-conn-heap", raw_cfg, rawResult(m_h));
    printReplayRow(raw, "million-conn / binary heap", m_h);
    json.addRow("replay-million-conn-ladder", raw_cfg, rawResult(m_l));
    printReplayRow(raw, "million-conn / ladder", m_l);

    raw.print();

    if (!agree("fig4", f_h, f_l) || !agree("million-conn", m_h, m_l))
        return 1;
    if (m_l.nowEnd >= kParkHorizon) {
        std::fprintf(stderr,
                     "FAIL: replay ran past the parked horizon "
                     "(now %llu) — the parked mass fired and the "
                     "workload shape is no longer million-conn\n",
                     static_cast<unsigned long long>(m_l.nowEnd));
        return 1;
    }

    const double fig4_speedup = f_h.wall / f_l.wall;
    const double mc_speedup = m_h.wall / m_l.wall;
    std::printf("\nladder/heap speedup: fig4 %.2fx, million-conn "
                "%.2fx (gate: million-conn >= 3x)\n",
                fig4_speedup, mc_speedup);

    finishJson(args, json);

    if (mc_speedup < 3.0) {
        std::fprintf(stderr,
                     "\nFAIL: million-conn replay speedup %.2fx below "
                     "the 3x floor\n",
                     mc_speedup);
        return 1;
    }
    return 0;
}
