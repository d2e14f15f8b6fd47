/**
 * @file
 * Incident spans: per-fault detect/eject/recover timelines for MTTR.
 *
 * The fleet orchestrator opens one incident per injected fault
 * (crash, degrade, flap, partition, balancer loss); the detection
 * layer stamps the first moments it *noticed* (detect), *acted*
 * (eject), and *restored service* (recover) for the afflicted target.
 * The chaos harness reduces the spans to the paper-style operational
 * metrics: mean/percentile time-to-detect, detect-to-eject MTTR, and
 * inject-to-recover.
 *
 * All timestamps are simulation ticks from the shared EventQueue, so
 * MTTR numbers are as deterministic as everything else; the log folds
 * into run fingerprints via hash().
 */

#ifndef FSIM_TRACE_INCIDENT_LOG_HH
#define FSIM_TRACE_INCIDENT_LOG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

/** What kind of fault opened the incident. */
enum class IncidentKind : std::uint8_t
{
    kMachineCrash = 0,
    kMachineDegrade,
    kMachineFlap,       //!< oscillating degrade
    kNetPartition,
    kLbCrash,
    kSloBurn,           //!< error-budget burn-rate alert (SLO layer)
};

/** One fault's lifecycle timeline. */
struct Incident
{
    IncidentKind kind = IncidentKind::kMachineCrash;
    /** Afflicted server-machine slot; -1 = not tied to one machine
     *  (a multi-group partition, a balancer loss). */
    int target = -1;
    Tick injectAt = 0;          //!< fault armed on the live topology
    Tick clearAt = 0;           //!< fault removed (window closed)
    Tick detectAt = 0;          //!< first suspicion (probe fail/outlier)
    Tick ejectAt = 0;           //!< target removed from steering
    Tick recoverAt = 0;         //!< target readmitted to steering
    bool cleared = false;
    bool detected = false;
    bool ejected = false;
    bool recovered = false;
};

/** Append-only incident record with first-moment stamping. */
class IncidentLog
{
  public:
    /** Open an incident; returns its id. */
    int open(IncidentKind kind, int target, Tick injectAt);

    /** The fault itself was removed (window end / heal). */
    void noteCleared(int id, Tick t);

    /** @name Detection-side stamps (first occurrence only)
     *  Balancers don't hold incident ids, so stamps route by target:
     *  the newest incident open for @p target (injectAt <= t) that has
     *  not yet been stamped takes it. Multiple balancers stamping the
     *  same incident keep the earliest tick (first call wins).
     */
    /** @{ */
    void noteDetect(int target, Tick t);
    void noteEject(int target, Tick t);
    void noteRecover(int target, Tick t);
    /** @} */

    /** Direct by-id detect stamp, for openers that hold their incident
     *  id (the SLO burn tracker): no target routing, no risk of
     *  absorbing another fault's stamps. First call wins. */
    void noteDetectById(int id, Tick t);

    const std::vector<Incident> &incidents() const { return incidents_; }
    std::size_t count() const { return incidents_.size(); }

    /** Fold every span into one word (for run fingerprints). */
    std::uint64_t hash() const;

  private:
    Incident *latestFor(int target, Tick t);

    std::vector<Incident> incidents_;
};

} // namespace fsim

#endif // FSIM_TRACE_INCIDENT_LOG_HH
