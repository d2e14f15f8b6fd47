/**
 * @file
 * Experiment harness: builds a machine + application + client fleet,
 * runs warmup and measurement windows, and collects the metrics every
 * figure/table of the paper is expressed in (connections/s, per-core
 * utilization, L3 miss rate, local-packet proportion, lockstat deltas).
 */

#ifndef FSIM_HARNESS_EXPERIMENT_HH
#define FSIM_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/backend.hh"
#include "app/http_load.hh"
#include "app/machine.hh"
#include "app/proxy.hh"
#include "app/web_server.hh"
#include "check/invariants.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "harness/server.hh"
#include "kernel/kernel_config.hh"
#include "overload/admission.hh"
#include "stats/metrics.hh"
#include "sync/lock_registry.hh"
#include "trace/conn_span.hh"
#include "trace/fleet_trace.hh"
#include "trace/span_forensics.hh"
#include "trace/trace_report.hh"

namespace fsim
{

/** Which server application runs on the machine under test. */
enum class AppKind
{
    kNginx,     //!< WebServer (passive connections only)
    kHaproxy,   //!< Proxy (passive + active connections)
};

/** One experiment's setup. */
struct ExperimentConfig
{
    AppKind app = AppKind::kNginx;
    MachineConfig machine;
    /** http_load concurrency multiplier (paper: 500 x cores). */
    int concurrencyPerCore = 500;
    double warmupSec = 0.03;
    double measureSec = 0.12;
    /** Number of ideal backend servers (HAProxy experiments). */
    int backendCount = 16;
    /** Backend service port (a non-well-known port exercises RFD rule
     *  3, the precise listener probe). */
    Port backendPort = 80;
    /** Keep-alive backends: responses carry no FIN, so the proxy
     *  actively closes every backend connection and its ephemeral
     *  ports linger in TIME_WAIT (tcp_tw_reuse pressure). */
    bool backendKeepAlive = false;
    /** nginx accept mutex (paper 4.2.2 disables it under Fastsocket). */
    bool acceptMutex = false;
    /** Requests per connection (1 = short-lived; >1 enables HTTP
     *  keep-alive on the web server and long-lived client behavior). */
    int requestsPerConn = 1;
    /** @name Mixed connection lifetimes (0 = uniform workload) */
    /** @{ */
    /** Long-lived client connections per 1000 launches (keep-alive,
     *  longLivedRequests requests with think time); the rest stay
     *  short-lived "Connection: close" exchanges. Forces keep-alive on
     *  the web server. See HttpLoad::Config. */
    int longLivedPermille = 0;
    int longLivedRequests = 8;
    Tick longLivedThink = 0;
    /** Client ephemeral ports per IP (0 = full range): narrows the
     *  client tuple space for TIME_WAIT tuple-reuse pressure. */
    int clientPortSpan = 0;
    /** Client IP count (0 = HttpLoad default of 256). */
    int clientIps = 0;
    /** @} */
    /** Wire packet-loss probability (failure injection; 0 = off). */
    double lossRate = 0.0;
    /** Client give-up timeout (0 = none; required if lossRate > 0). */
    Tick clientTimeout = 0;
    /** Sub-windows the measurement window is split into for per-window
     *  lockstat deltas (1 = a single whole-window delta). */
    int statWindows = 1;
    /** Invariant checking intensity (src/check). The final-pass default
     *  is cheap enough to stay on everywhere; the fuzzer runs
     *  kPeriodic. */
    CheckLevel checkLevel = CheckLevel::kFinal;
    /** Sim-time between periodic invariant passes (kPeriodic only). */
    double checkIntervalSec = 0.005;
    /** Override the accept-queue backlog (somaxconn) of every listen
     *  socket (0 = keep the Socket default). */
    std::size_t listenBacklog = 0;
    /** Bounded workload: total connections the client fleet may start
     *  (0 = unlimited closed loop). See HttpLoad::Config::maxConns. */
    std::uint64_t maxConns = 0;

    /** @name Fault injection + hardening (src/fault) */
    /** @{ */
    /** Scheduled fault plan; empty = no injection. */
    FaultPlan faults;
    /** Client SYN/request retransmission base RTO (0 = off). */
    Tick clientRtoBase = 0;
    /** Proxy per-attempt backend timeout (0 = off); enables retry with
     *  backend health ejection (haproxy app only). */
    Tick backendTimeout = 0;
    /** @} */

    /** @name Overload control (src/overload) */
    /** @{ */
    /** Every Nth client connection is a tiny health probe (0 = none);
     *  pair with machine.overload.healthRequestBytes so the server's
     *  admission gate classifies them. */
    int clientHealthEvery = 0;
    /** @} */

    /** @name Span tracing (src/trace conn spans) */
    /** @{ */
    /** Copy the window's completed per-connection span traces into the
     *  result (needed by the Perfetto exporter; forensics alone do
     *  not). Meaningless when machine.traceEnabled is off. */
    bool keepSpanTraces = false;
    /** @} */
};

/** Overload-control counters of one run (run totals, not deltas, except
 *  the latency percentiles which cover the measurement window). */
struct OverloadResult
{
    bool enabled = false;
    /** Serialized OverloadConfig knobs ("" when disabled). */
    std::string spec;

    /** @name Admission (run totals) */
    /** @{ */
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedWorkerCap = 0;
    std::uint64_t shedPressure = 0;
    std::uint64_t released = 0;
    std::uint64_t inflight = 0;
    std::uint64_t healthOffered = 0;
    std::uint64_t healthAdmitted = 0;
    std::uint64_t servedDegraded = 0;
    /** @} */

    /** @name Kernel + process pressure signals */
    /** @{ */
    std::uint64_t backlogDropped = 0;
    std::uint64_t synGateDropped = 0;
    std::uint64_t pressureTransitions = 0;
    int pressureLevel = 0;       //!< final PressureLevel
    int pressurePeak = 0;        //!< highest PressureLevel seen
    std::uint64_t softirqDepthPeak = 0;
    std::uint64_t acceptDepthPeak = 0;
    std::uint64_t epollReadyPeak = 0;
    /** @} */

    /** @name Client-observed outcome (window-scoped latency) */
    /** @{ */
    Tick latencyP50 = 0;
    Tick latencyP99 = 0;
    std::uint64_t latencySamples = 0;
    std::uint64_t healthProbesStarted = 0;
    std::uint64_t healthProbesCompleted = 0;
    std::uint64_t healthProbesFailed = 0;
    /** @} */
};

/** One checkpoint of a connection-count ramp (bench_million_conn):
 *  per-connection memory and lookup cost at a given live population. */
struct ConnRampPoint
{
    std::uint64_t live = 0;          //!< live TCBs at the checkpoint
    double bytesPerConn = 0.0;       //!< arena bytes / live peak so far
    double cyclesPerLookup = 0.0;    //!< ehash lookup cycles (delta avg)
    double avgProbeLen = 0.0;        //!< chain entries walked per lookup
};

/** Connection-lifetime census of one run (run totals and peaks, not
 *  window deltas): TCB memory footprint, TIME_WAIT lifecycle counters,
 *  ephemeral-port pressure, and established-hash lookup cost. */
struct ConnResult
{
    /** @name TCB arena (memory footprint) */
    /** @{ */
    std::uint64_t tcbLive = 0;        //!< live sockets at collection
    std::uint64_t tcbLivePeak = 0;    //!< arena high-water mark
    std::uint64_t tcbCreated = 0;     //!< total sockets ever created
    std::uint64_t slabBytes = 0;      //!< arena capacity bytes
    double bytesPerConn = 0.0;        //!< slabBytes / tcbLivePeak
    /** @} */

    /** @name Established gauge + TIME_WAIT lifecycle */
    /** @{ */
    std::uint64_t establishedCurr = 0;
    std::uint64_t establishedPeak = 0;
    std::uint64_t timeWaitCurr = 0;
    std::uint64_t timeWaitPeak = 0;
    std::uint64_t timeWaitEntered = 0;
    std::uint64_t timeWaitReaped = 0;
    std::uint64_t timeWaitRecycled = 0;
    std::uint64_t timeWaitReused = 0;
    std::uint64_t timeWaitSynDropped = 0;
    std::uint64_t timeWaitAcks = 0;
    /** @} */

    /** @name Ephemeral-port pressure */
    /** @{ */
    std::uint64_t portAllocFailures = 0;   //!< connect() EADDRNOTAVAIL
    /** @} */

    /** @name Established-hash lookup cost (global + per-core tables) */
    /** @{ */
    std::uint64_t ehashLookups = 0;
    std::uint64_t ehashProbesWalked = 0;
    std::uint64_t ehashLookupCycles = 0;
    std::uint64_t ehashResizes = 0;
    double avgProbeLen = 0.0;         //!< probesWalked / lookups
    double cyclesPerLookup = 0.0;     //!< lookupCycles / lookups
    /** @} */

    /** Ramp checkpoints (filled by bench_million_conn; empty
     *  elsewhere). */
    std::vector<ConnRampPoint> ramp;
};

/** Fleet-tier outcome (the JSON "fleet" block, written only when
 *  enabled; single-machine runs leave it default-constructed). Counters are sums over every balancer
 *  and, where machine-scoped, over every server machine generation. */
struct FleetResult
{
    bool enabled = false;
    int serverMachines = 0;
    int balancers = 0;
    std::string policy;                 //!< "chash" | "rr"

    /** @name Balancer flow table */
    /** @{ */
    std::uint64_t flowsCreated = 0;
    std::uint64_t flowsRetired = 0;
    std::uint64_t flowsActive = 0;      //!< still open at collect()
    std::uint64_t flowsActivePeak = 0;
    std::uint64_t tupleReuse = 0;
    std::uint64_t idleRetired = 0;
    std::uint64_t forwardedC2s = 0;
    std::uint64_t forwardedS2c = 0;
    /** @} */

    /** @name Steering and shedding */
    /** @{ */
    std::uint64_t shedNoBackend = 0;    //!< SYN RSTs: no healthy target
    std::uint64_t shedCapacity = 0;     //!< SYN RSTs: flow table full
    std::uint64_t natRsts = 0;          //!< non-SYN with no flow
    std::uint64_t boundedLoadFallbacks = 0;
    std::uint64_t pressureAvoids = 0;   //!< cross-tier pressure skips
    /** @} */

    /** @name Health, draining, orchestration */
    /** @{ */
    std::uint64_t probesSent = 0;
    std::uint64_t probeFailures = 0;
    std::uint64_t ejections = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t drainsStarted = 0;
    std::uint64_t drainsCompleted = 0;
    std::uint64_t undrainedFlows = 0;   //!< active past drain deadline
    std::uint64_t restarts = 0;         //!< machine generations started
    std::uint64_t crashes = 0;          //!< abrupt (non-admin) losses
    std::uint64_t lbCrashes = 0;
    std::uint64_t vipTakeovers = 0;
    /** @} */

    /** @name Fabric-edge accounting */
    /** @{ */
    std::uint64_t txSuppressed = 0;     //!< zombie packets gated at ports
    std::uint64_t corpseRsts = 0;       //!< RSTs answered for dead boxes
    std::uint64_t blackholed = 0;       //!< packets eaten by dead boxes
    std::uint64_t linkPackets = 0;
    std::uint64_t linkQueuedTicks = 0;
    /** @} */

    /** completed / (completed + failed) over the measurement window. */
    double requestSuccessRatio = 0.0;

    /** @name Gray-failure detection */
    /** @{ */
    std::string healthMode;             //!< "binary" | "score"
    std::uint64_t scoreEjections = 0;   //!< outlier-score ejections
    std::uint64_t rampSkips = 0;        //!< slow-start steering skips
    std::uint64_t ejectionsCapped = 0;  //!< vetoed by eject-fraction cap
    std::uint64_t degradesApplied = 0;  //!< gray-degrade applications
    std::uint64_t flapTransitions = 0;  //!< flap mode toggles fired
    std::uint64_t partitionsArmed = 0;  //!< partition range pairs armed
    std::uint64_t degradeDropped = 0;   //!< NIC-degrade egress losses
    std::uint64_t degradeDelayed = 0;   //!< NIC-degrade delayed packets
    std::uint64_t partitionDropped = 0; //!< blackholed by partitions
    std::uint64_t incidentsTotal = 0;
    std::uint64_t incidentsDetected = 0;
    std::uint64_t incidentsRecovered = 0;
    /** Mean inject->detect over detected incidents, ms (0 if none). */
    double mttdMsMean = 0.0;
    /** Mean inject->recover over recovered incidents, ms (0 if none). */
    double mttrMsMean = 0.0;
    /** @} */

    /** @name End-to-end tracing + SLO */
    /** @{ */
    std::uint64_t tracesStarted = 0;    //!< client hops recorded
    std::uint64_t tracesCompleted = 0;  //!< client finishes (ok + fail)
    std::uint64_t tracesStitched = 0;   //!< with a machine span joined
    /** Completed-ok traces with no balancer record (gate: must be 0). */
    std::uint64_t traceOrphans = 0;
    /** Trace-id collisions between attempts (gate: must be 0). */
    std::uint64_t traceDuplicates = 0;
    /** (generation, core) pairs whose recorded exec-span ticks exceed
     *  the core's busy ticks (gate: must be 0). */
    std::uint64_t spanReconcileViolations = 0;
    std::uint64_t sloFastAlerts = 0;    //!< fast-burn arm firings
    std::uint64_t sloSlowAlerts = 0;    //!< slow-burn arm firings
    /** Earliest fast-burn alert, ms from run start (0 = never). */
    double sloFirstFastAlertMs = 0.0;
    /** @} */

    bool operator==(const FleetResult &) const = default;
};

/** Measured outcome of one experiment. */
struct ExperimentResult
{
    double cps = 0.0;                   //!< connections per second
    double rps = 0.0;                   //!< responses (requests) per sec
    double l3MissRate = 0.0;            //!< window L3 miss rate
    double localPktProportion = 0.0;    //!< Figure 5(b) metric
    std::vector<double> coreUtil;       //!< per-core utilization
    /** Window deltas of every lock class (acquisitions/contentions...). */
    std::map<std::string, LockClassStats> locks;
    std::uint64_t served = 0;           //!< app-level responses in window
    std::uint64_t clientFailures = 0;
    std::uint64_t slowPathAccepts = 0;
    std::uint64_t steeredPackets = 0;
    std::uint64_t rxPackets = 0;
    /** Fraction of measured cycles spent spinning on each lock class. */
    std::map<std::string, double> lockCycleShare;

    /** @name Trace-derived observability (window-scoped) */
    /** @{ */
    /** Measurement window length in ticks. */
    Tick windowSpan = 0;
    /** Raw per-core phase-cycle deltas over the window. */
    PhaseSnapshot phaseCycles;
    /** Normalized per-core phase fractions (each row sums to 1). */
    PhaseBreakdown phases;
    /** Folded stacks ("softirq;lock-spin cycles"), heaviest first. */
    std::vector<std::pair<std::string, std::uint64_t>> foldedStacks;
    /** Per-window lockstat deltas (cfg.statWindows sub-windows). */
    std::vector<LockWindow> lockWindows;
    /** Accept/backlog queue-depth timelines, keyed by queue name. */
    std::map<std::string, std::vector<QueueSample>> queueTimelines;
    /** Per-connection span forensics over the measurement window
     *  (stage latency percentiles + tail exemplars; enabled=false when
     *  tracing is off, and then the JSON "latency_stages" block is
     *  omitted). */
    SpanForensics spanForensics;
    /** The window's completed span traces, kept only when
     *  cfg.keepSpanTraces (shared: results are copied by value). */
    std::shared_ptr<const std::vector<ConnSpanTrace>> spanTraces;
    /** @} */

    /** @name Correctness (src/check) */
    /** @{ */
    /** Determinism fingerprint: wire delivery-sequence hash folded with
     *  the run's final simulated counters. Same seed + config => same
     *  fingerprint, with or without tracing. */
    std::uint64_t fingerprint = 0;
    /** Invariant evaluations of this run (empty when checkLevel=kOff). */
    InvariantReport invariants;
    /** @} */

    /** Overload-control signals (enabled=false when the run had none). */
    OverloadResult overload;

    /** Connection-lifetime census (arena, TIME_WAIT, ports, ehash). */
    ConnResult conn;

    /** Fleet tier (enabled=false for single-machine runs). */
    FleetResult fleet;

    /** Sampled metrics time series (the JSON "timeseries" block,
     *  omitted when the run had no registry). */
    MetricsSnapshot timeseries;

    /** Fleet-wide end-to-end critical-path forensics (the JSON
     *  "fleet_trace" block, omitted outside traced fleet runs). */
    FleetTraceForensics fleetTrace;

    /** @name DES-core throughput (the JSON "sim_core" block) */
    /** @{ */
    /** Events executed / scheduled over the window (deterministic:
     *  part of the same-seed contract like every counter above). */
    std::uint64_t simEventsRun = 0;
    std::uint64_t simEventsScheduled = 0;
    /** Window span in ticks (same value as windowSpan for run(), but
     *  filled even when tracing is off). */
    Tick simTicks = 0;
    /** Wall-clock seconds the window took. Stamped only by wall-aware
     *  benches (bench_sim_core); 0 everywhere else so same-seed JSON
     *  exports stay byte-identical across machines and runs. */
    double simWallSeconds = 0.0;
    /** @} */

    double maxUtil() const;
    double avgUtil() const;
    double minUtil() const;
};

/**
 * A fully wired simulated testbed. Exposed (rather than hidden inside a
 * run() function) so examples can drive it interactively.
 */
class Testbed
{
  public:
    explicit Testbed(const ExperimentConfig &cfg);
    ~Testbed();

    EventQueue &eventQueue() { return *eq_; }
    Wire &wire() { return *wire_; }
    Machine &machine() { return *server_.machine; }
    AppBase &app() { return *server_.app; }
    HttpLoad &load() { return *load_; }
    BackendPool *backends() { return backends_.get(); }
    FaultInjector *faults() { return faults_.get(); }
    InvariantRegistry &checks() { return checks_; }
    /** Null unless cfg.machine.overload.enabled. */
    AdmissionController *admission() { return server_.admission.get(); }

    /** Run warmup + measurement, return the measured window. */
    ExperimentResult run();

    /** Start the client fleet (done by run(); for manual driving). */
    void startLoad();

    /** Snapshot-and-measure helper for manual driving. */
    void markWindows();
    ExperimentResult collect();

    /**
     * Advance simulated time to @p limit, interleaving periodic
     * invariant passes when cfg.checkLevel == kPeriodic. Slicing is
     * behavior-neutral: events execute at identical ticks either way.
     */
    void runUntilChecked(Tick limit);

    /** Current determinism fingerprint (wire sequence + live counters). */
    std::uint64_t currentFingerprint() const;

  private:
    ExperimentConfig cfg_;
    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<Wire> wire_;
    std::unique_ptr<BackendPool> backends_;
    Server server_;
    std::unique_ptr<HttpLoad> load_;
    std::unique_ptr<FaultInjector> faults_;
    InvariantRegistry checks_;

    bool loadStarted_ = false;
    ServerWindow mark_;
    RunMark runMark_;
};

/** Convenience: build a testbed, run it, return the result. */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

} // namespace fsim

#endif // FSIM_HARNESS_EXPERIMENT_HH
