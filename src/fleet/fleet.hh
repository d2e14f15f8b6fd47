/**
 * @file
 * FleetTestbed: the N-machine generalization of harness/Testbed.
 *
 * Topology (one shared fabric Wire, per-link latency/bandwidth):
 *
 *     clients (HttpLoad) ── front link ── VIPs (L4Balancer x B)
 *                                           │ full NAT
 *                                rack links per server machine
 *                                           │
 *                    server machines x N (Machine + Proxy/WebServer,
 *                       each behind a TX-gated NetPort)
 *                                           │
 *                            shared BackendPool (haproxy mode)
 *
 * Every server machine is an independent Machine instance with its own
 * kernel, cores, admission controller and address block; the balancers
 * steer client flows across them. The fleet orchestrator consumes the
 * fleet-kind FaultEvents (machine_crash / rolling_restart / lb_crash)
 * from the plan and drives crash, drain->stop->restart->readmit and
 * VIP-failover sequences against the live topology; the remaining
 * wire/backend events are armed on a normal FaultInjector.
 *
 * Crash model: a machine's NetPort TX gate closes (zombie transmissions
 * die at the NIC edge) and its fabric addresses are re-attached to a
 * corpse handler — an RST responder (power stayed on, kernel gone) or a
 * blackhole (cable pulled). Restart builds a fresh Machine generation
 * whose constructor re-attaches the same addresses, overwriting the
 * corpse. Old generations are retained as zombies until teardown so
 * run-total counters stay monotonic.
 *
 * Determinism: same FleetConfig + seed => bit-identical fingerprint,
 * folded from the fabric delivery hash, every machine generation's
 * kernel counters, and every balancer's counter hash.
 */

#ifndef FSIM_FLEET_FLEET_HH
#define FSIM_FLEET_FLEET_HH

#include <memory>
#include <vector>

#include "fleet/balancer.hh"
#include "harness/experiment.hh"
#include "net/net_port.hh"
#include "overload/slo.hh"
#include "stats/metrics.hh"
#include "trace/fleet_trace.hh"
#include "trace/incident_log.hh"

namespace fsim
{

/** Fleet topology + policy knobs on top of a per-machine template. */
struct FleetConfig
{
    /** Per-machine template: app kind, machine/kernel config (seed,
     *  cores, overload...), windows, faults, client shape. Fleet-kind
     *  fault events are consumed by the orchestrator; the rest arm a
     *  normal FaultInjector against the fabric. */
    ExperimentConfig base;

    int serverMachines = 4;
    int balancers = 2;

    /** @name Steering */
    /** @{ */
    L4Balancer::Policy policy = L4Balancer::Policy::kConsistentHash;
    std::size_t maxFlowsPerBalancer = 1u << 15;
    /** Balancer flows idle this long are retired. */
    double flowIdleTimeoutMsec = 200.0;
    /** @} */

    /** @name Health probing (wire-level SYN probes every 2 ms) */
    /** @{ */
    double probeTimeoutMsec = 1.0;
    /** kScore replaces the binary fall/rise machine with latency-aware
     *  outlier scoring (catches gray degradation binary probes miss). */
    L4Balancer::HealthMode healthMode = L4Balancer::HealthMode::kBinary;
    HealthScoreConfig healthScore;
    /** @} */

    /** >0: drive an open-loop Poisson arrival rate instead of the
     *  closed loop (the diurnal-curve benches reshape it over time via
     *  HttpLoad::setOpenLoopRate). */
    double openLoopRate = 0.0;

    /** @name SLO burn-rate tracking (independent of tracing: evaluates
     *  aggregate load counters, so it works under --notrace too) */
    /** @{ */
    bool sloEnabled = false;
    SloConfig slo;
    /** @} */
};

/** An N-machine, B-balancer simulated fleet with fault orchestration. */
class FleetTestbed
{
  public:
    explicit FleetTestbed(const FleetConfig &cfg);
    ~FleetTestbed();

    EventQueue &eventQueue() { return *eq_; }
    Wire &fabric() { return *fabric_; }
    HttpLoad &load() { return *load_; }
    L4Balancer &balancer(int k) { return *balancers_[k]; }
    int balancerCount() const { return static_cast<int>(
        balancers_.size()); }
    Machine &machine(int s) { return *slots_[s].gen.machine; }
    AppBase &app(int s) { return *slots_[s].gen.app; }
    bool machineUp(int s) const { return slots_[s].up; }
    int machineCount() const { return static_cast<int>(slots_.size()); }
    InvariantRegistry &checks() { return checks_; }

    /** @name Manual fault orchestration (benches/tests drive these;
     *  plan-scheduled fleet events call the same entry points) */
    /** @{ */
    /** Abrupt machine loss. @p admin suppresses the crash counter and
     *  tells balancers (a planned stop, not a discovered failure). */
    void crashMachine(int s, FaultEvent::CrashMode mode,
                      bool admin = false);
    /** Build the next Machine generation for a down slot. */
    void restartMachine(int s);
    /** Drain -> stop -> restart -> readmit, one machine at a time. */
    void beginRollingRestart(Tick drainDeadline, Tick downtime);
    bool rollingRestartActive() const { return rollingActive_; }
    void crashBalancer(int k);
    void restoreBalancer(int k);
    /** Gray degradation: CPU work stretched by @p permille/1000, NIC
     *  egress dropping @p nicLoss of packets and delaying the rest by
     *  @p nicDelay. Survives a restart of the slot (the fault is the
     *  machine's environment, not one generation's state). */
    void degradeMachine(int s, std::uint32_t permille, double nicLoss,
                        Tick nicDelay);
    void clearDegrade(int s);
    /** @} */

    /** Incident ledger (inject -> detect -> eject -> recover stamps;
     *  balancers write the detection-side stamps). */
    const IncidentLog &incidents() const { return incidents_; }

    /** End-to-end trace collector (client + balancer hops stream in
     *  live; machine spans are stitched as their connections close,
     *  in-flight ones at collect()). */
    const FleetTraceLog &traceLog() const { return traceLog_; }

    /** Fleet metrics registry (sampled once per stat sub-window). */
    const MetricsRegistry &metrics() const { return metrics_; }

    /** SLO burn tracker (null unless cfg.sloEnabled). */
    const SloTracker *slo() const { return slo_.get(); }

    /** Per stat sub-window: feed the SLO tracker and sample every
     *  registered metric. Recording only. run() calls it once per
     *  sub-window; external drivers (the scenario fuzzer) that bypass
     *  run() call it on their own cadence. */
    void sampleObservability(Tick wstart, Tick wend);

    /** Start client load (idempotent; run() calls it). */
    void startLoad();
    /** Reset all measurement marks to now. */
    void markWindows();
    /** Advance to @p limit, honoring cfg.base.checkLevel. */
    void runUntilChecked(Tick limit);
    /** Measure since the last markWindows(). */
    ExperimentResult collect();
    /** warmup -> mark -> measure -> collect (the bench entry point). */
    ExperimentResult run();

    std::uint64_t currentFingerprint() const;

    /** @name Orchestration counters */
    /** @{ */
    std::uint64_t crashes() const { return crashes_; }
    std::uint64_t restarts() const { return restarts_; }
    std::uint64_t lbCrashes() const { return lbCrashes_; }
    std::uint64_t vipTakeovers() const { return vipTakeovers_; }
    std::uint64_t degradesApplied() const { return degradesApplied_; }
    std::uint64_t flapTransitions() const { return flapTransitions_; }
    std::uint64_t partitionsArmed() const { return partitionsArmed_; }
    /** @} */

    /** @name Address plan (stable; tests depend on it) */
    /** @{ */
    static IpAddr machineBase(int s)
    {
        return 0x0a000001u + static_cast<IpAddr>(s) * 0x100u;
    }
    static IpAddr vipAddr(int k) { return 0x0aff0001u + k; }
    static IpAddr natAddr(int k) { return 0x0a800001u + k; }
    /** @} */

  private:
    /** A generation's fabric port: a base of Generation so that it is
     *  destroyed after the Machine attached to it. */
    struct PortHolder
    {
        std::unique_ptr<NetPort> port;
    };

    /** One machine generation (kept as a zombie after crash). */
    struct Generation : PortHolder, Server {};

    struct ServerSlot
    {
        Generation gen;
        int generation = 0;     //!< 0 = original boot
        bool up = true;
        /** @name Active gray-degradation parameters (re-applied to a
         *  fresh generation if the slot restarts mid-fault) */
        /** @{ */
        bool degraded = false;
        std::uint32_t slowPermille = 1000;
        double nicLoss = 0.0;
        Tick nicDelay = 0;
        /** @} */
        /** Window mark of the slot's current generation. */
        ServerWindow mark;
    };

    void buildGeneration(int s);
    void armFleetFaults();
    void applyDegrade(int s);
    void setupObservability();
    /** Run-total shed across balancers + every admission generation. */
    std::uint64_t currentShedTotal() const;
    /** Group token ("clients", "lbs", "ms", "lb<k>", "m<s>") to fabric
     *  address ranges (first, last). */
    std::vector<std::pair<IpAddr, IpAddr>>
    resolveGroup(const std::string &tok) const;
    void advanceRolling();
    void pollDrain(int s, Tick deadline);
    void pollReadmit(int s);
    std::uint64_t totalActiveOn(int s) const;
    template <typename Fn> void forEachGeneration(Fn fn) const;

    FleetConfig cfg_;
    /** Declared before the machines: their span logs stitch into it
     *  until they are destroyed. */
    FleetTraceLog traceLog_;
    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<Wire> fabric_;
    std::vector<ServerSlot> slots_;
    std::vector<Generation> retired_;
    std::vector<std::unique_ptr<L4Balancer>> balancers_;
    std::vector<bool> lbUp_;
    std::unique_ptr<BackendPool> backends_;
    std::vector<IpAddr> backendAddrs_;
    std::unique_ptr<HttpLoad> load_;
    /** Last client address: the front link, the "clients" partition
     *  group and the load generator all cover the same range. */
    IpAddr clientLast_ = 0;
    std::unique_ptr<FaultInjector> faults_;
    InvariantRegistry checks_;
    bool loadStarted_ = false;

    bool rollingActive_ = false;
    int rollingIndex_ = 0;
    Tick rollingDrain_ = 0;
    Tick rollingDown_ = 0;

    std::uint64_t crashes_ = 0;
    std::uint64_t restarts_ = 0;
    std::uint64_t lbCrashes_ = 0;
    std::uint64_t vipTakeovers_ = 0;
    std::uint64_t corpseRsts_ = 0;
    std::uint64_t blackholed_ = 0;
    std::uint64_t degradesApplied_ = 0;
    std::uint64_t flapTransitions_ = 0;
    std::uint64_t partitionsArmed_ = 0;
    IncidentLog incidents_;
    MetricsRegistry metrics_;
    std::unique_ptr<SloTracker> slo_;

    /** @name Metric slots + sampling cursors */
    /** @{ */
    struct MetricIds
    {
        std::vector<MetricsRegistry::MetricId> lbFlows;
        std::vector<MetricsRegistry::MetricId> mCps;
        std::vector<MetricsRegistry::MetricId> mEstablished;
        std::vector<MetricsRegistry::MetricId> mTimeWait;
        std::vector<MetricsRegistry::MetricId> mPressure;
        MetricsRegistry::MetricId completed =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId failed =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId shed = MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId upMachines =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId healthyTargets =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId successRatio =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId latency =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId fastBurn =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId slowBurn =
            MetricsRegistry::kInvalidMetric;
    };
    MetricIds mid_;
    std::size_t latCursor_ = 0;     //!< into load_->latencySamples()
    std::uint64_t obsCompletedPrev_ = 0;
    std::uint64_t obsFailedPrev_ = 0;
    std::uint64_t obsShedPrev_ = 0;
    std::vector<std::uint64_t> obsServedPrev_;
    /** @} */

    RunMark runMark_;
    /** Window counters banked from generations retired mid-window. */
    ServerWindow retiredWindow_;
};

/** One-shot convenience mirroring runExperiment(). */
ExperimentResult runFleetExperiment(const FleetConfig &cfg);

} // namespace fsim

#endif // FSIM_FLEET_FLEET_HH
