/**
 * @file
 * bench_e2e: one workload of the end-to-end benchmark, one process.
 *
 *   bench_e2e --workload=NAME [--seed=N] [--layers] [--spans=PATH]
 *             [--warmup=SIM_S] [--window=SIM_S] [--probe-steps=N]
 *
 * Default mode times the three host segments a user of the simulator
 * pays for — set-up (testbed construction, startLoad, warmup), the
 * measured window, and collect() plus row JSON — with the host-speed
 * probe (host_probe.hh) run before and after each, and reads the
 * simulated outcome (connections/s and connect-to-last-byte latency).
 *
 * --layers runs the window three times in one process: untraced, then
 * untraced while recording the EventQueue op stream (replayed through a
 * bare queue to split host time between the DES core and the model),
 * then with simulator tracing on. Host times come from the unrecorded
 * passes. It prints per-layer metrics and, with --spans, writes every
 * benchmark-side span.
 *
 * The last stdout line is one JSON object; bench/e2e/run.py aggregates
 * it over processes. Exit status 1 means a correctness gate failed
 * (invariant violation, fingerprint mismatch between passes, or lost
 * or duplicated fleet traces); 2 means bad arguments.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "fleet/fleet.hh"
#include "harness/bench_json.hh"
#include "harness/experiment.hh"
#include "host_probe.hh"
#include "op_replay.hh"
#include "span_log.hh"
#include "trace/json_writer.hh"

namespace
{

using namespace fsim;

/**
 * The four workloads. Each stresses a different part of the simulator;
 * README.md gives the reasons and the layer each one exposes.
 */
struct Workload
{
    const char *name;
    /** FleetTestbed rather than one machine; its end-to-end run is the
     *  only one with simulator tracing on. */
    bool fleet;
    AppKind app;
    bool fastsocket;
    double warmup;  //!< sim-s
    double window;  //!< sim-s
};

const Workload kWorkloads[] = {
    {"nginx-fast24", false, AppKind::kNginx, true, 0.05, 1.0},
    {"nginx-base24", false, AppKind::kNginx, false, 0.05, 3.0},
    // Warmup + window must stay below ~1.05 sim-s: past that, RFD port
    // candidates above the ephemeral range index past the port bitmap
    // (PortAllocator::PortSet, src/tcp/port_alloc.hh).
    {"haproxy-fast24", false, AppKind::kHaproxy, true, 0.05, 0.5},
    {"fleet-traced", true, AppKind::kNginx, true, 0.03, 2.0},
};

/** Fleet stat sub-windows, each followed by sampleObservability(). */
constexpr int kFleetSubWindows = 20;

/** collect() timing: at most this many calls, stopping once they have
 *  taken this many host seconds. */
constexpr std::size_t kCollectCalls = 5;
constexpr double kCollectBudget = 0.5;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ExperimentConfig
machineConfig(const Workload &w, std::uint64_t seed, bool trace)
{
    ExperimentConfig c;
    c.app = w.app;
    c.machine.cores = 24;
    c.machine.kernel = w.fastsocket ? KernelConfig::fastsocket()
                                    : KernelConfig::base2632();
    c.machine.seed = seed;
    c.machine.traceEnabled = trace;
    c.concurrencyPerCore = 400;
    c.backendCount = 16;
    c.warmupSec = w.warmup;
    c.measureSec = w.window;
    return c;
}

/** bench_fleet_trace's steady row, driven open loop at ~36% of the
 *  fleet's capacity so latency measures the path, not a queue. */
FleetConfig
fleetConfig(const Workload &w, std::uint64_t seed, bool trace)
{
    FleetConfig fc;
    fc.serverMachines = 4;
    fc.balancers = 2;
    fc.base.app = w.app;
    fc.base.machine.cores = 4;
    fc.base.machine.kernel = KernelConfig::fastsocket();
    fc.base.machine.seed = seed;
    fc.base.machine.traceEnabled = trace;
    fc.base.concurrencyPerCore = 50;
    fc.base.warmupSec = w.warmup;
    fc.base.measureSec = w.window;
    fc.base.statWindows = kFleetSubWindows;
    fc.base.checkLevel = CheckLevel::kPeriodic;
    fc.base.clientTimeout = ticksFromSeconds(0.08);
    fc.base.clientRtoBase = ticksFromUsec(15000);
    fc.maxFlowsPerBalancer = 60'000;
    fc.probeTimeoutMsec = 1.8;
    fc.openLoopRate = 150'000.0;
    fc.sloEnabled = true;
    fc.slo.fastWindows = 1;
    fc.slo.latencyObjective = ticksFromUsec(3000);
    return fc;
}

double
usFromTicks(Tick t)
{
    return secondsFromTicks(t) * 1e6;
}

/** Resident set size now, MiB. */
double
residentMb()
{
    std::ifstream f("/proc/self/statm");
    unsigned long long pages = 0, resident = 0;
    f >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Return freed heap to the OS so the next pass's RSS growth is its
 *  own. */
void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/** Everything one run of a workload window produced. */
struct Pass
{
    ExperimentResult r;
    InvariantReport invariants;
    std::uint64_t completed = 0;    //!< window deltas
    std::uint64_t failed = 0;
    double p50us = 0.0;
    double p99us = 0.0;
    double p9999us = 0.0;
    std::uint64_t latencySamples = 0;
    /** Passive connections' SYN arrival to accept() return, p99. */
    double synToAcceptP99us = 0.0;
    std::uint64_t jsonBytes = 0;
    double setupRaw = 0.0;          //!< host seconds
    double windowRaw = 0.0;
    double collectRaw = 0.0;        //!< median of collectCalls calls
    std::size_t collectCalls = 0;
    double rssGrowthMb = 0.0;       //!< construction to window end
};

/** p99 of SYN arrival to the end of accept() over the window's
 *  completed passive connections (0 when tracing is off). */
double
synToAcceptP99(const ConnSpanLog &log, std::size_t from)
{
    std::vector<Tick> v;
    const auto &all = log.completed();
    for (std::size_t i = from; i < all.size(); ++i) {
        if (!all[i].passive)
            continue;
        Tick acceptEnd = 0;
        for (const ConnSpan &s : all[i].spans)
            if (s.stage == ConnStage::kAccept)
                acceptEnd = std::max(acceptEnd, s.end);
        if (acceptEnd > all[i].openTick)
            v.push_back(acceptEnd - all[i].openTick);
    }
    if (v.empty())
        return 0.0;
    const std::size_t idx = (v.size() - 1) * 99 / 100;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return usFromTicks(v[idx]);
}

/**
 * Set up, run and collect one workload window on @p Bed (Testbed or
 * FleetTestbed), wrapping every call in a span. With @p probe the host
 * probe runs before and after each timed segment; with @p ops the
 * window's EventQueue op stream is recorded.
 */
template <typename Bed, typename Cfg>
Pass
runPass(const Workload &w, const Cfg &cfg, const ExperimentConfig &rowCfg,
        SpanLog &spans, HostProbe *probe, std::vector<double> &probes,
        std::vector<EventQueue::SchedOp> *ops)
{
    constexpr bool kFleet = std::is_same_v<Bed, FleetTestbed>;
    auto probeNow = [&] {
        if (probe)
            probes.push_back(probe->run());
    };
    Pass p;
    probeNow();
    const double rss0 = residentMb();
    std::unique_ptr<Bed> bed;
    {
        SpanLog::Scope s(spans, "harness.setup");
        {
            SpanLog::Scope c(spans, "harness.construct");
            bed = std::make_unique<Bed>(cfg);
        }
        {
            SpanLog::Scope c(spans, "harness.start_load");
            bed->startLoad();
        }
        {
            SpanLog::Scope c(spans, "harness.warmup");
            bed->runUntilChecked(bed->eventQueue().now() +
                                 ticksFromSeconds(w.warmup));
        }
        p.setupRaw = s.elapsed();
    }
    probeNow();

    EventQueue &eq = bed->eventQueue();
    HttpLoad &load = bed->load();
    {
        SpanLog::Scope s(spans, "harness.mark");
        bed->markWindows();
    }
    std::size_t spanMark = 0;
    if constexpr (!kFleet)
        spanMark = bed->machine().tracer().connSpans().completedCount();
    const std::uint64_t completed0 = load.completed();
    const std::uint64_t failed0 = load.failed();
    const Tick begin = eq.now();
    const Tick measure = ticksFromSeconds(w.window);
    const int wins = kFleet ? kFleetSubWindows : 1;
    if (ops) {
        // Reserve up front so the stream is not copied (and briefly held
        // twice) as it grows.
        ops->reserve(16'000'000);
        eq.recordOps(ops);
    }
    {
        SpanLog::Scope s(spans, "harness.window");
        for (int k = 0; k < wins; ++k) {
            const Tick wstart = eq.now();
            {
                SpanLog::Scope r(spans, "sim.run");
                bed->runUntilChecked(begin + measure * (k + 1) / wins);
            }
            if constexpr (kFleet) {
                SpanLog::Scope r(spans, "stats.sample");
                bed->sampleObservability(wstart, eq.now());
            }
        }
        p.windowRaw = s.elapsed();
    }
    if (ops)
        eq.recordOps(nullptr);
    p.rssGrowthMb = residentMb() - rss0;
    probeNow();

    // collect() reads the finished window, so calling it again returns
    // the same result. An untraced collect takes ~10 ms, too short for
    // one sample to be steady: time up to kCollectCalls back-to-back
    // calls (stopping after kCollectBudget s) and keep the median.
    std::vector<double> collectTimes;
    do {
        SpanLog::Scope s(spans, "harness.collect_row");
        {
            SpanLog::Scope c(spans, "harness.collect");
            p.r = bed->collect();
        }
        {
            SpanLog::Scope c(spans, "harness.json");
            BenchJsonReport report("e2e");
            report.addRow(w.name, rowCfg, p.r);
            p.jsonBytes = report.str().size();
        }
        collectTimes.push_back(s.elapsed());
    } while (collectTimes.size() < kCollectCalls &&
             std::accumulate(collectTimes.begin(), collectTimes.end(),
                             0.0) < kCollectBudget);
    p.collectCalls = collectTimes.size();
    p.collectRaw = median(collectTimes);
    probeNow();

    {
        SpanLog::Scope s(spans, "check.fingerprint");
        p.r.fingerprint = bed->currentFingerprint();
    }
    {
        SpanLog::Scope s(spans, "check.invariants");
        bed->checks().runAll(eq.now());
    }
    p.invariants = bed->checks().report();

    p.completed = load.completed() - completed0;
    p.failed = load.failed() - failed0;
    p.p50us = usFromTicks(load.latencyPercentileSinceMark(0.50));
    p.p99us = usFromTicks(load.latencyPercentileSinceMark(0.99));
    p.p9999us = usFromTicks(load.latencyPercentileSinceMark(0.9999));
    p.latencySamples = load.latencySamplesSinceMark();
    if constexpr (!kFleet)
        p.synToAcceptP99us = synToAcceptP99(
            bed->machine().tracer().connSpans(), spanMark);

    {
        SpanLog::Scope s(spans, "harness.teardown");
        bed.reset();
    }
    return p;
}

Pass
runWorkload(const Workload &w, std::uint64_t seed, bool trace,
            SpanLog &spans, HostProbe *probe, std::vector<double> &probes,
            std::vector<EventQueue::SchedOp> *ops)
{
    if (w.fleet) {
        const FleetConfig fc = fleetConfig(w, seed, trace);
        return runPass<FleetTestbed>(w, fc, fc.base, spans, probe, probes,
                                     ops);
    }
    const ExperimentConfig c = machineConfig(w, seed, trace);
    return runPass<Testbed>(w, c, c, spans, probe, probes, ops);
}

/** Correctness gates of one pass; appends one line per failure. */
void
checkPass(const Workload &w, const char *pass, const Pass &p,
          std::vector<std::string> &failures)
{
    char buf[256];
    if (!p.invariants.ok()) {
        std::snprintf(buf, sizeof(buf), "%s: invariants: %s", pass,
                      p.invariants.summary().c_str());
        failures.push_back(buf);
    }
    if (w.fleet) {
        const FleetResult &fl = p.r.fleet;
        if (fl.traceOrphans != 0 || fl.traceDuplicates != 0 ||
            fl.spanReconcileViolations != 0) {
            std::snprintf(buf, sizeof(buf),
                          "%s: %llu trace orphans, %llu duplicates, %llu "
                          "span reconcile violations",
                          pass,
                          static_cast<unsigned long long>(fl.traceOrphans),
                          static_cast<unsigned long long>(
                              fl.traceDuplicates),
                          static_cast<unsigned long long>(
                              fl.spanReconcileViolations));
            failures.push_back(buf);
        }
    }
    if (p.completed == 0) {
        std::snprintf(buf, sizeof(buf), "%s: no connection completed",
                      pass);
        failures.push_back(buf);
    }
}

double
perConn(double v, std::uint64_t conns)
{
    return conns ? v / static_cast<double>(conns) : 0.0;
}

/** Writes {"name": {"value": v, "unit": u}} entries. */
struct MetricOut
{
    JsonWriter &w;
    void
    operator()(const std::string &name, double v, const char *unit)
    {
        w.key(name).beginObject();
        w.key("value").value(v);
        w.key("unit").value(unit);
        w.endObject();
    }
};

/**
 * Per-layer metrics from the --layers passes. Host times come from the
 * unrecorded untraced and traced passes and are normalised by @p norm
 * (HostProbe::normaliser); simulated-model metrics come from the traced
 * pass, whose phase accounting and span forensics are on (simulated
 * state is identical in every pass).
 */
void
layerMetrics(const Workload &w, const SpanLog &spans, const Pass &untraced,
             const Pass &traced, const OpReplay &replay, double norm,
             double probeMedian, JsonWriter &out)
{
    MetricOut m{out};
    // Host-time layers come from the pass that matches the end-to-end
    // run's tracing setting, so they attribute what that run measures.
    const Pass &e2e = w.fleet ? traced : untraced;
    const auto self = spans.selfSeconds(w.fleet ? "traced" : "untraced");
    const auto selfOf = [&self](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const ExperimentResult &r = traced.r;
    const std::uint64_t conns = traced.completed;
    const double simSec = secondsFromTicks(r.simTicks);
    const double events = static_cast<double>(untraced.r.simEventsRun);

    m("harness.construct_s", selfOf("harness.construct") * norm, "s");
    m("harness.warmup_s", selfOf("harness.warmup") * norm, "s");
    const double calls = static_cast<double>(e2e.collectCalls);
    m("harness.collect_s", selfOf("harness.collect") / calls * norm, "s");
    m("harness.json_s", selfOf("harness.json") / calls * norm, "s");
    m("harness.json_bytes", static_cast<double>(e2e.jsonBytes), "bytes");
    m("check.fingerprint_s", selfOf("check.fingerprint") * norm, "s");
    m("check.invariants_s", selfOf("check.invariants") * norm, "s");

    m("sim.events_per_sim_s",
      simSec > 0 ? static_cast<double>(r.simEventsRun) / simSec : 0.0,
      "events/sim-s");
    m("sim.events_per_conn",
      perConn(static_cast<double>(r.simEventsRun), conns), "events/conn");
    const double queueNs =
        replay.executed ? replay.wall * 1e9 /
                              static_cast<double>(replay.executed)
                        : 0.0;
    m("sim.queue_ns_per_event", queueNs * norm, "ns/event");
    m("model.ns_per_event",
      events > 0 ? (untraced.windowRaw * 1e9 / events - queueNs) * norm
                 : 0.0,
      "ns/event");

    m("trace.overhead_ratio",
      untraced.windowRaw > 0 ? traced.windowRaw / untraced.windowRaw : 0.0,
      "ratio");
    m("trace.rss_mb", traced.rssGrowthMb - untraced.rssGrowthMb, "MiB");
    m("trace.stitch_s", (traced.collectRaw - untraced.collectRaw) * norm,
      "s");
    m("stats.sample_share",
      e2e.windowRaw > 0 ? selfOf("stats.sample") / e2e.windowRaw : 0.0,
      "share");

    static const char *const kPhases[kNumChargedPhases] = {
        "app", "syscall", "softirq", "lock_spin", "cache_stall"};
    for (int ph = 0; ph < kNumChargedPhases; ++ph) {
        double cycles = 0.0;
        for (const auto &row : r.phaseCycles.perCore)
            cycles += static_cast<double>(row[static_cast<std::size_t>(ph)]);
        m(std::string("cpu.cycles_per_conn.") + kPhases[ph],
          perConn(cycles, conns), "cycles/conn");
    }
    m("cpu.util_avg", r.avgUtil(), "share");
    m("cpu.util_min", r.minUtil(), "share");
    m("cpu.l3_miss_rate", r.l3MissRate, "share");

    static const char *const kLocks[] = {
        "ehash.lock", "slock", "dcache_lock", "inode_lock",
        "ep.lock", "portbind.lock", "base.lock"};
    for (const char *lock : kLocks) {
        LockClassStats ls;
        auto it = r.locks.find(lock);
        if (it != r.locks.end())
            ls = it->second;
        m(std::string("sync.") + lock + ".contentions_per_conn",
          perConn(static_cast<double>(ls.contentions), conns),
          "count/conn");
        m(std::string("sync.") + lock + ".wait_cycles_per_conn",
          perConn(static_cast<double>(ls.waitTicks), conns),
          "cycles/conn");
    }

    m("tcp.ehash_probe_len", r.conn.avgProbeLen, "entries");
    m("tcp.ehash_cycles_per_lookup", r.conn.cyclesPerLookup, "cycles");
    m("tcp.port_alloc_failures",
      static_cast<double>(r.conn.portAllocFailures), "count");
    m("net.local_pkt_share", r.localPktProportion, "share");
    m("fastsocket.steered_per_conn",
      perConn(static_cast<double>(r.steeredPackets), conns), "pkts/conn");
    m("fastsocket.slow_path_accept_share",
      perConn(static_cast<double>(r.slowPathAccepts), r.served), "share");
    m("conn.bytes_per_conn", r.conn.bytesPerConn, "bytes/conn");
    m("conn.tcb_live_peak", static_cast<double>(r.conn.tcbLivePeak),
      "count");
    m("conn.time_wait_peak", static_cast<double>(r.conn.timeWaitPeak),
      "count");

    // Queue peaks from the traced window's depth timelines (the
    // overload controller's own peaks stay 0 while it is disabled).
    double acceptPeak = 0.0, softirqPeak = 0.0;
    for (const auto &kv : r.queueTimelines)
        for (const QueueSample &q : kv.second) {
            double &peak = q.queue == TraceQueueId::kSoftirqBacklog
                               ? softirqPeak
                               : acceptPeak;
            if (q.queue != TraceQueueId::kProcessBacklog)
                peak = std::max(peak, static_cast<double>(q.depth));
        }
    m("kernel.accept_depth_peak", acceptPeak, "count");
    m("kernel.softirq_depth_peak", softirqPeak, "count");
    m("epollsim.ready_peak", static_cast<double>(r.overload.epollReadyPeak),
      "count");
    m("kernel.backlog_dropped",
      static_cast<double>(r.overload.backlogDropped), "count");
    double aq50 = 0.0, aq99 = 0.0;
    for (const StagePercentiles &sp : r.spanForensics.stages)
        if (sp.stage == ConnStage::kAcceptQueue) {
            aq50 = usFromTicks(sp.p50);
            aq99 = usFromTicks(sp.p99);
        }
    m("kernel.accept_queue_p50_us", aq50, "sim-us");
    m("kernel.accept_queue_p99_us", aq99, "sim-us");
    m("kernel.syn_rx_to_accept_p99_us", traced.synToAcceptP99us, "sim-us");

    const FleetResult &fl = r.fleet;
    m("fleet.forwarded_per_req",
      perConn(static_cast<double>(fl.forwardedC2s + fl.forwardedS2c),
              conns),
      "pkts/req");
    m("fleet.flows_active_peak", static_cast<double>(fl.flowsActivePeak),
      "count");
    m("fleet.link_queued_us_per_pkt",
      fl.linkPackets ? usFromTicks(fl.linkQueuedTicks) /
                           static_cast<double>(fl.linkPackets)
                     : 0.0,
      "sim-us/pkt");
    static const char *const kHops[] = {"wire", "lb-ingress", "lb-nat",
                                        "server-exec"};
    for (const char *hop : kHops) {
        double p99 = 0.0;
        for (const FleetHopStat &h : r.fleetTrace.hops)
            if (h.hop == hop)
                p99 = usFromTicks(h.p99);
        m(std::string("fleet.hop_p99_us.") + hop, p99, "sim-us");
    }
    m("host.probe_s", probeMedian, "s");
}

void
writeSimBlock(JsonWriter &w, const Pass &p)
{
    w.key("sim").beginObject();
    w.key("cps").value(p.r.cps);
    w.key("p50_us").value(p.p50us);
    w.key("p99_us").value(p.p99us);
    w.key("p9999_us").value(p.p9999us);
    w.key("latency_samples").value(p.latencySamples);
    w.key("attempted").value(p.completed + p.failed);
    w.key("failed").value(p.failed);
    w.key("window_sim_s").value(secondsFromTicks(p.r.simTicks));
    w.endObject();
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

int
usage(const char *prog, const char *bad)
{
    std::fprintf(stderr, "%s: bad argument '%s'\n", prog, bad);
    std::fprintf(stderr,
                 "usage: %s --workload=NAME [--seed=N] [--layers] "
                 "[--spans=PATH] [--warmup=SIM_S] [--window=SIM_S] "
                 "[--probe-steps=N]\nworkloads:",
                 prog);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *found = nullptr;
    std::uint64_t seed = 1;
    bool layers = false;
    std::string spansPath;
    double warmup = -1.0;
    double window = -1.0;
    std::uint64_t probeSteps = HostProbe::kSteps;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strncmp(a, "--workload=", 11)) {
            for (const Workload &w : kWorkloads)
                if (!std::strcmp(a + 11, w.name))
                    found = &w;
            if (!found)
                return usage(argv[0], a);
        } else if (!std::strncmp(a, "--seed=", 7)) {
            seed = std::strtoull(a + 7, nullptr, 10);
        } else if (!std::strcmp(a, "--layers")) {
            layers = true;
        } else if (!std::strncmp(a, "--spans=", 8)) {
            spansPath = a + 8;
        } else if (!std::strncmp(a, "--warmup=", 9)) {
            warmup = std::strtod(a + 9, nullptr);
        } else if (!std::strncmp(a, "--window=", 9)) {
            window = std::strtod(a + 9, nullptr);
        } else if (!std::strncmp(a, "--probe-steps=", 14)) {
            probeSteps = std::strtoull(a + 14, nullptr, 10);
        } else {
            return usage(argv[0], a);
        }
    }
    if (!found || seed == 0 || probeSteps == 0)
        return usage(argv[0], found ? "(value out of range)"
                                    : "(missing --workload)");
    Workload w = *found;
    if (warmup >= 0.0)
        w.warmup = warmup;
    if (window > 0.0)
        w.window = window;

    HostProbe probe(probeSteps);
    SpanLog spans(w.name);
    std::vector<double> probes;
    std::vector<std::string> failures;

    JsonWriter out;
    out.beginObject();
    out.key("workload").value(w.name);
    out.key("seed").value(seed);
    out.key("mode").value(layers ? "layers" : "e2e");
    out.key("probe_ref_s").value(probe.refSeconds());

    if (!layers) {
        const char *pass = w.fleet ? "traced" : "untraced";
        spans.setPass(pass);
        const Pass p = runWorkload(w, seed, w.fleet, spans, &probe, probes,
                                   nullptr);
        checkPass(w, pass, p, failures);
        // probes: [before setup, after warmup, after window, after
        // collect]; each segment is normalised by its bracketing pair.
        const double nSetup = probe.normaliser(0.5 * (probes[0] + probes[1]));
        const double nWindow = probe.normaliser(0.5 * (probes[1] + probes[2]));
        const double nCollect =
            probe.normaliser(0.5 * (probes[2] + probes[3]));
        const double simSec = secondsFromTicks(p.r.simTicks);
        const std::uint64_t attempted = p.completed + p.failed;

        out.key("fingerprint").value(hex(p.r.fingerprint));
        out.key("invariants").value(p.invariants.summary());
        out.key("probe_s").beginArray();
        for (double s : probes)
            out.value(s);
        out.endArray();
        out.key("raw").beginObject();
        out.key("setup_s").value(p.setupRaw);
        out.key("window_s").value(p.windowRaw);
        out.key("collect_s").value(p.collectRaw);
        out.endObject();
        writeSimBlock(out, p);
        out.key("metrics").beginObject();
        MetricOut m{out};
        m("wall_per_sim_s", p.windowRaw / simSec * nWindow, "s/sim-s");
        m("setup_s", p.setupRaw * nSetup, "s");
        m("collect_s", p.collectRaw * nCollect, "s");
        m("peak_rss_mb", peakRssMb(), "MiB");
        m("sim_cps", p.r.cps, "conn/sim-s");
        m("sim_p50_us", p.p50us, "sim-us");
        m("sim_p99_us", p.p99us, "sim-us");
        m("sim_p9999_us", p.p9999us, "sim-us");
        m("fail_ratio",
          attempted ? static_cast<double>(p.failed) /
                          static_cast<double>(attempted)
                    : 0.0,
          "share");
        out.endObject();
    } else {
        probes.push_back(probe.run());
        spans.setPass("untraced");
        const Pass a = runWorkload(w, seed, false, spans, nullptr, probes,
                                   nullptr);
        trimHeap();
        probes.push_back(probe.run());
        // Recording costs host time, so this pass only feeds the replay;
        // the window times come from the unrecorded passes.
        std::vector<EventQueue::SchedOp> ops;
        spans.setPass("recorded");
        const Pass rec = runWorkload(w, seed, false, spans, nullptr, probes,
                                     &ops);
        trimHeap();
        OpReplay replay;
        {
            SpanLog::Scope s(spans, "sim.replay");
            replay = replayOps(ops);
        }
        std::vector<EventQueue::SchedOp>().swap(ops);
        trimHeap();
        probes.push_back(probe.run());
        spans.setPass("traced");
        const Pass b = runWorkload(w, seed, true, spans, nullptr, probes,
                                   nullptr);
        probes.push_back(probe.run());

        checkPass(w, "untraced", a, failures);
        checkPass(w, "recorded", rec, failures);
        checkPass(w, "traced", b, failures);
        for (const Pass *p : {&rec, &b})
            if (p->r.fingerprint != a.r.fingerprint)
                failures.push_back(
                    std::string(p == &b ? "traced" : "recorded") +
                    " fingerprint " + hex(p->r.fingerprint) +
                    " != untraced fingerprint " + hex(a.r.fingerprint));

        const double probeMedian = median(probes);
        out.key("fingerprint").value(hex(b.r.fingerprint));
        out.key("untraced_fingerprint").value(hex(a.r.fingerprint));
        out.key("invariants").value(b.invariants.summary());
        out.key("probe_s").beginArray();
        for (double s : probes)
            out.value(s);
        out.endArray();
        writeSimBlock(out, w.fleet ? b : a);
        out.key("self_s").beginObject();
        for (const char *pass : {"untraced", "recorded", "traced"}) {
            out.key(pass).beginObject();
            for (const auto &kv : spans.selfSeconds(pass))
                out.key(kv.first).value(kv.second);
            out.endObject();
        }
        out.endObject();
        out.key("layers").beginObject();
        layerMetrics(w, spans, a, b, replay, probe.normaliser(probeMedian),
                     probeMedian, out);
        out.endObject();
    }

    if (!spansPath.empty()) {
        std::ofstream f(spansPath);
        f << spans.json() << "\n";
        if (!f)
            failures.push_back("could not write " + spansPath);
    }
    out.key("probe_sink").value(probe.sink());
    out.key("failures").beginArray();
    for (const std::string &f : failures)
        out.value(f);
    out.endArray();
    out.key("ok").value(failures.empty());
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return failures.empty() ? 0 : 1;
}
