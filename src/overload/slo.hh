/**
 * @file
 * SLO burn-rate tracking: windowed success-ratio and latency
 * objectives with fast/slow multi-window burn alerts, SRE-workbook
 * style.
 *
 * The harness feeds one sample per stat window (requests finished,
 * failures, latency-objective misses). For each objective the tracker
 * keeps trailing windows and computes the burn rate — the observed
 * bad-event ratio divided by the objective's error budget, so burn 1.0
 * exactly exhausts the budget at the period horizon. Two alert arms
 * fire per objective:
 *
 *  - fast: trailing `fastWindows`, burn threshold 14 — pages on
 *    sudden cliffs (a gray-degraded machine) well before wire-level
 *    health probes accumulate eject evidence;
 *  - slow: trailing 12 windows, burn threshold 2 — catches slow leaks
 *    the fast arm averages away.
 *
 * The availability objective is a 99.9% success ratio; the latency
 * objective asks 99% of completed requests to finish within
 * `latencyObjective`.
 *
 * First firing per arm opens a kSloBurn incident in the IncidentLog
 * (detect stamped at the firing tick, by id — never routed through a
 * machine target); the incident clears when the arm drops back under
 * threshold. The tracker reads only aggregate simulation state and
 * never perturbs simulated behavior; its burn incidents do land in the
 * IncidentLog (and hence the fingerprint), deterministically for a
 * given config + seed — gating on cfg.sloEnabled keeps existing
 * configurations bit-identical.
 */

#ifndef FSIM_OVERLOAD_SLO_HH
#define FSIM_OVERLOAD_SLO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

class IncidentLog;

struct SloConfig
{
    /** Latency objective in ticks (0 = latency SLO disabled): a
     *  completed request slower than this is a latency-SLO miss. */
    Tick latencyObjective = 0;
    /** Trailing stat windows of the fast-burn arm. */
    int fastWindows = 2;
};

/** One objective's live state. */
struct SloObjective
{
    std::string name;           //!< "availability" / "latency"
    double errorBudget = 0.001;
    /** Trailing (good, bad) per window, newest last. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
    double fastBurn = 0.0;
    double slowBurn = 0.0;
    bool fastActive = false;
    bool slowActive = false;
    std::uint64_t fastAlerts = 0;
    std::uint64_t slowAlerts = 0;
    Tick firstFastAlert = 0;
    Tick firstSlowAlert = 0;
    int fastIncident = -1;      //!< open kSloBurn incident id (-1 none)
    int slowIncident = -1;
};

class SloTracker
{
  public:
    /** IncidentLog targets for SLO incidents start here: far above
     *  machine slots (0..63) and balancer targets (1000+k), so
     *  target-routed stamps from the health layer can never land on an
     *  SLO incident. */
    static constexpr int kIncidentTargetBase = 2000;

    explicit SloTracker(const SloConfig &cfg);

    void setIncidentLog(IncidentLog *log) { incidents_ = log; }

    /**
     * Feed one stat window ending at @p now: @p ok requests finished in
     * budget, @p failed requests errored, @p lat_misses of the ok ones
     * exceeded the latency objective.
     */
    void addWindow(Tick now, std::uint64_t ok, std::uint64_t failed,
                   std::uint64_t lat_misses);

    const std::vector<SloObjective> &objectives() const
    {
        return objectives_;
    }

    /** @name Roll-ups across objectives */
    /** @{ */
    std::uint64_t fastAlerts() const;
    std::uint64_t slowAlerts() const;
    /** Earliest fast-burn firing tick (0 = never fired). */
    Tick firstFastAlert() const;
    /** @} */

  private:
    void evalArm(SloObjective &obj, Tick now, bool fast);
    static double burnOver(const SloObjective &obj, int nwin);

    SloConfig cfg_;
    IncidentLog *incidents_ = nullptr;
    std::vector<SloObjective> objectives_;
};

} // namespace fsim

#endif // FSIM_OVERLOAD_SLO_HH
