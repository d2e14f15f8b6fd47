/**
 * @file
 * Property-based scenario fuzzing for the simulator.
 *
 * A Scenario is a compact, serializable description of one bounded
 * experiment: core count, application, kernel flavor/features, load
 * shape, loss injection, backlog and NUMA knobs. Scenarios are generated
 * valid-by-construction from a seed (the Fastsocket feature lattice is
 * respected: E requires L and R), run with all invariants armed at
 * kPeriodic plus a same-seed determinism double-run, and — on violation —
 * greedily shrunk toward a minimal reproducer that can be committed to
 * tests/corpus/ and replayed as a regression test.
 *
 * runOnMachine() is the one bounded-run driver for a single machine:
 * the fuzzer's runScenario() and the differential oracle
 * (check/differential.hh) both run their scenarios through it.
 */

#ifndef FSIM_CHECK_SCENARIO_HH
#define FSIM_CHECK_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>

#include "check/invariants.hh"
#include "harness/experiment.hh"
#include "sim/rng.hh"

namespace fsim
{

/** One fuzzable experiment description (key=value serializable). */
struct Scenario
{
    std::uint64_t seed = 1;         //!< machine + load RNG seed
    int cores = 4;
    AppKind app = AppKind::kNginx;
    /** Kernel preset: "base2632", "linux313", "fastsocket", or "custom"
     *  (base 2.6.32 flavor + the feature bits below). */
    std::string kernel = "fastsocket";
    bool fastVfs = false;
    bool localListen = false;
    bool rfd = false;
    bool localEstablished = false;

    int concurrencyPerCore = 50;
    int requestsPerConn = 1;
    std::uint64_t maxConns = 1000;  //!< bounded so the run quiesces
    double lossRate = 0.0;
    double clientTimeoutSec = 0.0;  //!< required > 0 when lossRate > 0
    std::uint64_t listenBacklog = 0;  //!< 0 = socket default
    bool uma = false;               //!< UMA costs instead of calibrated
    bool acceptMutex = false;
    bool traceEnabled = true;
    double maxSimSec = 30.0;        //!< drain cap

    /** @name Connection-lifetime shape (TIME_WAIT / mixed-lifetime) */
    /** @{ */
    int longLivedPermille = 0;   //!< per-1000 launches parked long-lived
    int longLivedRequests = 2;   //!< requests per long-lived connection
    double longLivedThinkMsec = 0.0;
    /** Tiny client source-port space: four-tuples repeat fast, so fresh
     *  SYNs keep landing on lingering TIME_WAIT entries. Requires
     *  clientRtoMsec > 0 (conservative TW drops the SYN; the retry is
     *  what lets the run drain). */
    int clientPortSpan = 0;
    int clientIps = 0;           //!< client IP count (0 = default 256)
    bool twReuse = false;        //!< tcp_tw_reuse analog
    bool twRecycle = false;      //!< tcp_tw_recycle analog
    /** Keep-alive backends (haproxy): the proxy actively closes every
     *  backend connection, putting its ephemeral ports in TIME_WAIT. */
    bool backendKeepAlive = false;
    /** Shrink the ephemeral range to this many ports (0 = default),
     *  for connect()-side port-exhaustion pressure. */
    int ephemeralPorts = 0;
    /** @} */

    /** @name Fleet tier (0 machines = classic single-machine Testbed)
     *  When fleetMachines > 0 the scenario runs on a FleetTestbed:
     *  clients -> L4 balancer VIPs -> N server machines over modeled
     *  links. Drain deadlines and crash/restart timing ride in the
     *  fault plan through the fleet event kinds (machine_crash,
     *  rolling_restart, lb_crash); those kinds require the tier. */
    /** @{ */
    int fleetMachines = 0;
    int fleetBalancers = 1;
    std::string fleetPolicy = "chash";  //!< "chash" | "rr" steering
    /** Arm the SLO burn-rate tracker + per-window metrics sampling on
     *  the fleet (requires fleetMachines > 0). SLO incidents fold into
     *  the fingerprint, so the double-run also proves the whole
     *  observability layer deterministic; the stitching invariant
     *  (every ok request joins exactly one balancer flow and one
     *  server span, no orphans/duplicates) is checked after drain
     *  whenever tracing is on. */
    bool sloMetrics = false;
    /** @} */

    /** Fault plan in parseFaultPlan() text form (empty = no faults).
     *  A non-empty plan requires clientTimeoutSec > 0 so stuck
     *  connections still drain. */
    std::string faultPlan;
    bool synCookies = false;        //!< server answers full SYN queues
    std::uint64_t synBacklog = 0;   //!< SYN-queue cap (0 = kernel default)
    double clientRtoMsec = 0.0;     //!< client retx base RTO (0 = off)

    /** Materialize the harness config this scenario describes. */
    ExperimentConfig toConfig() const;
};

/** Draw a valid random scenario from @p rng. */
Scenario randomScenario(Rng &rng);

/** One-line-per-field "key = value" text form (reproducer files). */
std::string serializeScenario(const Scenario &s);

/**
 * Parse serializeScenario() output. Blank and #-comment lines are
 * ignored; an unknown key, a malformed or out-of-range value, or a
 * broken cross-field constraint is an error. @return false and fills
 * @p err (naming the line or key) on malformed input.
 */
bool parseScenario(const std::string &text, Scenario &out,
                   std::string &err);

/** Outcome of fuzzing one scenario. */
struct ScenarioResult
{
    bool drained = false;        //!< quiesced under the sim-time cap
    bool deterministic = false;  //!< double-run fingerprints matched
    std::uint64_t fingerprint = 0;
    std::uint64_t fingerprint2 = 0;
    InvariantReport invariants;  //!< periodic + final + quiesce checks

    bool ok() const { return drained && deterministic && invariants.ok(); }
    std::string summary() const;
};

/**
 * What one bounded run of a scenario produced: the fuzzer's verdict
 * (drain, fingerprint, invariants) plus the totals the differential
 * oracle compares across kernels. The totals are read on a single
 * machine only; the fleet tier leaves them zero.
 */
struct ScenarioRun
{
    bool drained = false;        //!< quiesced under the sim-time cap
    std::uint64_t fingerprint = 0;
    InvariantReport invariants;  //!< periodic + final + quiesce checks

    /** @name Application-level totals (a kernel must not change them) */
    /** @{ */
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t responses = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t served = 0;    //!< server-side response count
    /** @} */

    /** @name Performance totals (expected to differ across kernels) */
    /** @{ */
    Tick drainTick = 0;              //!< sim time at drain (or the cap)
    std::uint64_t lockWaitTicks = 0; //!< spin-wait cycles, all classes
    std::uint64_t busyTicks = 0;     //!< total core busy cycles
    /** @} */
};

/**
 * Run single-machine scenario @p s once (fleetMachines == 0): drive its
 * bounded load in 10 ms chunks until it drains or hits maxSimSec, let
 * the kernel quiesce, then run the final checks plus, on loss- and
 * fault-free runs, the leak checks.
 */
ScenarioRun runOnMachine(const Scenario &s);

/**
 * Run @p s twice with all invariants armed (periodic conservation plus
 * quiesce leak checks) and compare the two fingerprints.
 */
ScenarioResult runScenario(const Scenario &s);

/**
 * Greedily shrink @p failing while @p fails still returns true, trying
 * at most @p budget candidate scenarios. Shrink moves: drop the fleet
 * tier (then machines, balancers, steering policy), drop features
 * toward the baseline kernel, zero loss, shrink cores / concurrency /
 * maxConns / backlog, disable trace. Returns the smallest still-failing
 * scenario found (possibly @p failing itself).
 */
Scenario shrinkScenario(const Scenario &failing,
                        const std::function<bool(const Scenario &)> &fails,
                        int budget);

} // namespace fsim

#endif // FSIM_CHECK_SCENARIO_HH
