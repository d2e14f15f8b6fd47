/**
 * @file
 * Deterministic fault plans: time-scheduled fault events for a run.
 *
 * A FaultPlan is pure data — a list of fault windows plus a seed — with a
 * single-line text form so plans travel through bench flags
 * (`--faults=<plan>`), fuzz-scenario files and JSON reports unchanged:
 *
 *     kind@startSec-endSec[:param=value[,param=value...]] [; ...] [; seed=N]
 *
 * e.g. `loss_burst@0.05-0.08:rate=0.3;syn_flood@0.05-0.08:rate=200000`.
 *
 * Every fault decision downstream (wire loss/reorder/duplication fates,
 * flood SYN arrival ticks, backend outage membership) is a pure function
 * of the plan and packet content, never of wall-clock or RNG draws shared
 * with the workload, so armed plans keep same-seed runs bit-identical.
 */

#ifndef FSIM_FAULT_FAULT_PLAN_HH
#define FSIM_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace fsim
{

/** What a FaultEvent does while its window is open. */
enum class FaultKind
{
    kLossBurst,     //!< wire: drop packets with probability `rate`
    kReorder,       //!< wire: delay packets extra jitter with prob `rate`
    kDuplicate,     //!< wire: deliver packets twice with prob `rate`
    kSynFlood,      //!< attacker: `rate` SYNs/sec, handshakes never finish
    kBackendSlow,   //!< backend `target`: service delay x `factor`
    kBackendDown,   //!< backend `target`: crashed (requests vanish)
    kAtrShrink,     //!< NIC: clamp the ATR flow table to `tableSize`
    /** Fleet kinds (consumed by src/fleet's orchestrator; a
     *  single-machine FaultInjector counts them as ignored). */
    kMachineCrash,    //!< server machine `target`: abrupt loss at start,
                      //!< restart at window end; `mode` picks RST vs
                      //!< blackhole behavior for packets to the corpse
    kRollingRestart,  //!< drain->stop->restart->readmit sweep over every
                      //!< server machine inside the window
    kLbCrash,         //!< balancer `target`: lost at start (peer adopts
                      //!< its VIP), back at window end
    kMachineDegrade,  //!< server machine `target` goes gray: CPU runs
                      //!< `factor`x slower, its NIC drops `rate` of
                      //!< egress and adds `jitter` usec of delay;
                      //!< `flap_ms` > 0 oscillates healthy<->degraded
                      //!< on that period instead of staying degraded
    kNetPartition,    //!< blackhole both directions between address
                      //!< groups `a` and `b` (clients|lbs|ms|lb<k>|m<s>)
                      //!< for the window; the link heals at window end
};

/** The kinds after kAtrShrink: the fleet orchestrator's (fleet tier
 *  only; a single-machine FaultInjector counts them as ignored). */
constexpr bool
isFleetKind(FaultKind k)
{
    return k > FaultKind::kAtrShrink;
}

/** One scheduled fault window. */
struct FaultEvent
{
    FaultKind kind = FaultKind::kLossBurst;
    double startSec = 0.0;          //!< window open (absolute sim time)
    double endSec = 0.0;            //!< window close (exclusive)
    /** Loss/reorder/duplicate probability, or syn_flood SYNs per second. */
    double rate = 0.0;
    /** backend_slow service-delay multiplier. */
    double factor = 4.0;
    /** Backend index for backend_* events (-1 = every backend). */
    int target = -1;
    /** Extra reorder delay bound, microseconds. */
    double jitterUsec = 200.0;
    /** atr_shrink table clamp, entries. */
    std::uint32_t tableSize = 64;
    /** machine_crash corpse behavior: answer with RSTs or drop silently. */
    enum class CrashMode { kRst, kBlackhole };
    CrashMode mode = CrashMode::kRst;
    /** rolling_restart per-machine drain deadline, milliseconds. */
    double drainMsec = 50.0;
    /** rolling_restart stop-to-restart downtime, milliseconds. */
    double downMsec = 5.0;
    /** machine_degrade flap period, milliseconds (0 = steady gray). A
     *  flapping machine alternates degraded/healthy half-periods,
     *  starting degraded at window open. */
    double flapMsec = 0.0;
    /** net_partition endpoint groups. Tokens: "clients" (the client
     *  edge), "lbs" (every balancer), "ms" (every server machine),
     *  "lb<k>" (balancer k), "m<s>" (server machine s). */
    std::string partA = "lb0";
    std::string partB = "ms";
};

/** A run's complete fault schedule. */
struct FaultPlan
{
    std::vector<FaultEvent> events;
    /** Folded into every content-hash fault decision. */
    std::uint64_t seed = 0xfa17;

    bool empty() const { return events.empty(); }
    bool has(FaultKind kind) const;
};

/**
 * Parse the single-line plan grammar above.
 *
 * @return false and fill @p err on malformed input: an unknown kind
 *         token lists the valid kinds, and a parameter the kind does not
 *         take lists the ones it does. An empty/whitespace @p text
 *         parses to an empty plan.
 */
bool parseFaultPlan(const std::string &text, FaultPlan &out,
                    std::string &err);

/** Inverse of parseFaultPlan(); "" for an empty plan. */
std::string serializeFaultPlan(const FaultPlan &plan);

} // namespace fsim

#endif // FSIM_FAULT_FAULT_PLAN_HH
