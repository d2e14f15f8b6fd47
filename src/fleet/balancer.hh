/**
 * @file
 * L4 load balancer: full-NAT connection steering for the fleet tier.
 *
 * The balancer owns a VIP that clients connect to and a NAT source
 * address the server machines reply to. Every client flow is steered to
 * one server machine by consistent hashing over (clientIp, clientPort)
 * with a bounded-load fallback walk (skip targets whose active-flow
 * gauge exceeds factor x fleet average), or plain round-robin. Packets
 * are rewritten in both directions — full NAT, not DSR, because the
 * client matches responses by the exact tuple it connected on.
 *
 * Health is wire-level: periodic SYN probes (Packet::prio set, so the
 * server's overload defenses spare them) from dedicated low ports on
 * the NAT address. SYN-ACK within the timeout is a success; an RST or
 * silence is a failure. The probe handshake is abandoned silently — a
 * probe RST-ACK would wrongly *establish* the server's embryonic
 * socket (the kernel promotes SYN_RCVD on any ACK-bearing segment), so
 * fleet server kernels run with a short synRcvdJiffies reaper instead.
 *
 * Draining (rolling restarts) moves a target to kDraining: no new
 * flows land on it, existing flows keep flowing, and finishDrain()
 * reports how many were still active when the deadline expired.
 *
 * Determinism: steering is a pure function of flow key, ring seed and
 * gauge state; the idle-flow GC sorts keys before retiring; no RNG, no
 * wall clock. Same seed, same packet sequence, bit-identical counters.
 */

#ifndef FSIM_FLEET_BALANCER_HH
#define FSIM_FLEET_BALANCER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/health.hh"
#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace fsim
{

class FleetTraceLog;
class IncidentLog;

/** One L4 balancer instance (a fleet runs one or more, each with its
 *  own VIP; a survivor adopts a crashed peer's VIP). */
class L4Balancer
{
  public:
    enum class Policy
    {
        kConsistentHash,    //!< vnode ring + bounded-load fallback walk
        kRoundRobin,        //!< rotating cursor over healthy targets
    };

    /** Stable policy token ("chash" / "rr") for configs and JSON. */
    static const char *policyName(Policy p);
    static bool policyFromName(const std::string &s, Policy &out);

    /** How probe evidence becomes eject/readmit decisions. */
    enum class HealthMode
    {
        kBinary,    //!< consecutive silent probes eject (PR 8 behavior)
        kScore,     //!< EWMA RTT + success-ratio outlier scoring
    };

    static const char *healthModeName(HealthMode m);

    struct Config
    {
        IpAddr vip = 0;             //!< client-facing virtual IP
        IpAddr natIp = 0;           //!< source address servers reply to
        Policy policy = Policy::kConsistentHash;
        std::size_t maxFlows = 1u << 15;    //!< flow-table capacity
        Tick probeInterval = 0;     //!< 0 = probing disabled
        Tick probeTimeout = 0;      //!< silence -> failure after this
        /** kScore swaps the binary fall/rise machine for latency-aware
         *  outlier scoring (requires probing enabled). */
        HealthMode healthMode = HealthMode::kBinary;
        HealthScoreConfig score;    //!< kScore knobs
        Tick flowIdleTimeout = 0;   //!< 0 = idle GC disabled
        std::uint64_t seed = 1;     //!< ring placement salt
    };

    /** Per-packet rewrite/forward cost of every balancer hop. */
    static constexpr Tick kForwardDelay = ticksFromUsec(2.0);

    /** A steerable server machine: its listen addresses and port. */
    struct TargetSpec
    {
        std::vector<IpAddr> addrs;
        Port port = 80;
    };

    enum class TargetState : std::uint8_t
    {
        kHealthy = 0,
        kDraining,      //!< existing flows only; no new steering
        kDown,          //!< ejected (probes) or stopped (admin)
    };

    L4Balancer(EventQueue &eq, Wire &fabric, const Config &cfg);

    /** Register a target. Call for every machine before start(). */
    void addTarget(const TargetSpec &spec);

    /** Attach VIP + NAT handlers to the fabric (idempotent re-attach:
     *  restores this balancer after a crash window by overwriting). */
    void attachHandlers();

    /** Build the ring and arm the probe and GC loops. */
    void start();

    /** Crash/restore this balancer. Down = drop everything unseen and
     *  send no probes; the testbed blackholes the VIP/NAT addresses at
     *  the fabric in the same step. */
    void setDown(bool down);
    bool down() const { return down_; }

    /** @name Draining and admin state (rolling restarts) */
    /** @{ */
    /** Stop steering new flows to target @p m. */
    void startDrain(int m);
    /** Flows still active on target @p m. */
    std::uint64_t activeFlows(int m) const;
    /**
     * Close the drain window for @p m: returns the number of flows
     * still active (the un-drained loss the restart gate charges), and
     * counts a completed drain when zero remain.
     */
    std::uint64_t finishDrain(int m);
    /** Target @p m stopped on purpose (no ejection counted). */
    void noteStopped(int m);
    /** Target @p m restarted; it stays kDown until probes readmit it. */
    void noteRestarted(int m);
    bool healthy(int m) const;
    /** @} */

    /** Serve a crashed peer's VIP from this balancer (failover). */
    void adoptVip(IpAddr vip);

    /**
     * Cross-tier pressure reuse: when set, targets whose pressure level
     * (0=nominal 1=elevated 2=critical) reports critical are skipped in
     * the first steering pass, like bounded-load overfull targets.
     */
    void setPressureProbe(std::function<int(int)> fn)
    {
        pressureFn_ = std::move(fn);
    }

    /** Stamp detect/eject/recover moments onto fleet incidents (the
     *  target index doubles as the fleet machine slot). */
    void setIncidentLog(IncidentLog *log) { incidents_ = log; }

    /** Attach the fleet trace collector: flow creation reports LB
     *  ingress (as balancer @p lb_id), every NAT rewrite counts a
     *  forward. Recording only — steering and forwarding behavior are
     *  identical with or without a log attached. */
    void setTraceLog(FleetTraceLog *log, int lb_id)
    {
        traceLog_ = log;
        lbId_ = lb_id;
    }

    /** The health scorer (valid after start() in kScore mode). */
    const HealthScorer &scorer() const { return scorer_; }

    /** @name Counters (all deterministic; folded into fingerprints) */
    /** @{ */
    std::uint64_t flowsCreated() const { return flowsCreated_; }
    std::uint64_t flowsRetired() const { return flowsRetired_; }
    std::uint64_t flowsActive() const { return flows_.size(); }
    std::uint64_t flowsActivePeak() const { return flowsActivePeak_; }
    /** SYNs RST-ed because no healthy target existed. */
    std::uint64_t shedNoBackend() const { return shedNoBackend_; }
    /** SYNs RST-ed because the flow/NAT table was full. */
    std::uint64_t shedCapacity() const { return shedCapacity_; }
    /** Non-SYN packets with no flow, answered with a RST. */
    std::uint64_t natRsts() const { return natRsts_; }
    /** SYNs that reused a finished flow's tuple (TIME_WAIT recycle). */
    std::uint64_t tupleReuse() const { return tupleReuse_; }
    std::uint64_t boundedLoadFallbacks() const
    {
        return boundedLoadFallbacks_;
    }
    /** First-pass skips because the target reported critical pressure. */
    std::uint64_t pressureAvoids() const { return pressureAvoids_; }
    std::uint64_t probesSent() const { return probesSent_; }
    std::uint64_t probeFailures() const { return probeFailures_; }
    std::uint64_t ejections() const { return ejections_; }
    std::uint64_t readmissions() const { return readmissions_; }
    /** Ejections decided by the score outlier machine (subset of
     *  ejections()). */
    std::uint64_t scoreEjections() const { return scoreEjections_; }
    /** First-pass steering skips while a readmitted target ramped. */
    std::uint64_t rampSkips() const { return rampSkips_; }
    /** Score-mode ejections vetoed by the eject-fraction cap. */
    std::uint64_t ejectionsCapped() const { return ejectionsCapped_; }
    std::uint64_t drainsStarted() const { return drainsStarted_; }
    std::uint64_t drainsCompleted() const { return drainsCompleted_; }
    std::uint64_t undrainedFlows() const { return undrainedFlows_; }
    std::uint64_t idleRetired() const { return idleRetired_; }
    std::uint64_t forwardedC2s() const { return forwardedC2s_; }
    std::uint64_t forwardedS2c() const { return forwardedS2c_; }
    /** @} */

    int targetCount() const { return static_cast<int>(targets_.size()); }

    /** Fold every counter into one word (for run fingerprints). */
    std::uint64_t counterHash() const;

  private:
    struct Target
    {
        TargetSpec spec;
        TargetState state = TargetState::kHealthy;
        bool adminDown = false;
        int consecFails = 0;
        int consecOks = 0;
        Tick failStreakStart = 0;   //!< first failure of the streak
        std::uint64_t active = 0;   //!< live flows steered here
    };

    struct Flow
    {
        IpAddr clientIp = 0;
        Port clientPort = 0;
        IpAddr vip = 0;             //!< VIP the client connected to
        int machine = -1;
        IpAddr serverAddr = 0;
        Port natPort = 0;
        Tick lastActivity = 0;
        bool finC2s = false;
        bool finS2c = false;
        /** Trace context captured from the flow-creating SYN and
         *  restamped onto every rewritten packet, so the context
         *  survives the full-NAT rewrite in both directions. */
        std::uint64_t traceId = 0;
    };

    struct RingEntry
    {
        std::uint64_t hash;
        int machine;
    };

    struct Probe
    {
        int machine = -1;
        Tick sent = 0;      //!< for RTT scoring
    };

    static std::uint64_t flowKey(IpAddr ip, Port port)
    {
        return (static_cast<std::uint64_t>(ip) << 16) | port;
    }
    static std::uint64_t mix64(std::uint64_t x);

    /** Flow keys pack (ip, port) into the low 48 bits; mix them so the
     *  probe table's low index bits see the client address too. */
    struct FlowKeyHash
    {
        std::size_t operator()(std::uint64_t k) const { return mix64(k); }
    };

    void onVip(const Packet &pkt);
    void onNat(const Packet &pkt);
    void forwardC2s(Flow &f, const Packet &pkt);
    void forwardS2c(Flow &f, const Packet &pkt);
    void sendRstToClient(const Packet &cause);
    void retire(std::uint64_t key);
    int pickMachine(std::uint64_t key);
    Port allocNatPort();
    void rebuildRing();
    void probeRound();
    void scoreRound();
    void sendProbe(int m);
    void probeOk(int m, Tick rtt);
    void probeFail(int m);
    void gcSweep();

    bool scoreMode() const
    {
        return cfg_.healthMode == HealthMode::kScore;
    }

    EventQueue &eq_;
    Wire &fabric_;
    Config cfg_;
    HealthScorer scorer_;
    std::vector<HealthScorer::Verdict> verdicts_;
    IncidentLog *incidents_ = nullptr;
    FleetTraceLog *traceLog_ = nullptr;
    int lbId_ = 0;
    std::vector<IpAddr> vips_;      //!< own VIP first, then adopted
    std::vector<Target> targets_;
    std::vector<RingEntry> ring_;
    FlatMap<std::uint64_t, Flow, FlowKeyHash> flows_;
    /** NAT port -> owning flow key (0 = free). */
    std::vector<std::uint64_t> natOwner_;
    FlatMap<Port, Probe> probes_;
    std::vector<std::uint64_t> gcStale_;    //!< gcSweep scratch
    std::function<int(int)> pressureFn_;
    bool down_ = false;
    bool started_ = false;
    std::uint32_t natCursor_ = 0;
    std::uint32_t rrCursor_ = 0;
    std::uint64_t probeSeq_ = 0;

    std::uint64_t flowsCreated_ = 0;
    std::uint64_t flowsRetired_ = 0;
    std::uint64_t flowsActivePeak_ = 0;
    std::uint64_t shedNoBackend_ = 0;
    std::uint64_t shedCapacity_ = 0;
    std::uint64_t natRsts_ = 0;
    std::uint64_t tupleReuse_ = 0;
    std::uint64_t boundedLoadFallbacks_ = 0;
    std::uint64_t pressureAvoids_ = 0;
    std::uint64_t probesSent_ = 0;
    std::uint64_t probeFailures_ = 0;
    std::uint64_t ejections_ = 0;
    std::uint64_t readmissions_ = 0;
    std::uint64_t scoreEjections_ = 0;
    std::uint64_t rampSkips_ = 0;
    std::uint64_t ejectionsCapped_ = 0;
    std::uint64_t drainsStarted_ = 0;
    std::uint64_t drainsCompleted_ = 0;
    std::uint64_t undrainedFlows_ = 0;
    std::uint64_t idleRetired_ = 0;
    std::uint64_t forwardedC2s_ = 0;
    std::uint64_t forwardedS2c_ = 0;
    std::uint64_t downDrops_ = 0;
};

} // namespace fsim

#endif // FSIM_FLEET_BALANCER_HH
