/**
 * @file
 * Application-level admission controller.
 *
 * Consulted once per accepted connection, the controller decides between
 * full service, degraded (brownout) service, and an immediate shed. A
 * shed closes the connection without a response — the client observes a
 * fast failure (the 503-equivalent), which is what keeps the offered
 * load from wedging behind queues that would time every request out.
 *
 * The controller is also the bookkeeping anchor of the overload
 * conservation invariant: every offered connection is admitted, degraded
 * or shed, and every (admitted + degraded) connection is eventually
 * released exactly once — none lost, none double-counted.
 */

#ifndef FSIM_OVERLOAD_ADMISSION_HH
#define FSIM_OVERLOAD_ADMISSION_HH

#include <cstdint>
#include <vector>

#include "overload/overload_config.hh"
#include "overload/pressure.hh"
#include "sim/types.hh"

namespace fsim
{

/** Priority class of an arriving connection. */
enum class AdmitClass : std::uint8_t
{
    kNormal = 0,
    kHealth,    //!< health/control traffic; survives sheds
};

/** What to do with an accepted connection. */
enum class AdmitDecision : std::uint8_t
{
    kAdmit = 0,     //!< full service
    kDegrade,       //!< serve the cheap brownout response
    kShed,          //!< close immediately, no response
};

/** Why a connection was shed (for counters/trace). */
enum class ShedReason : std::uint8_t
{
    kDeadline = 0,  //!< accept-queue sojourn exceeded the deadline
    kWorkerCap,     //!< per-worker concurrency cap reached
    kPressure,      //!< machine pressure critical
};

/** Per-machine admission controller (all workers share the counters). */
class AdmissionController
{
  public:
    AdmissionController(const OverloadConfig &cfg,
                        const PressureState *pressure, int workers);

    bool enabled() const { return cfg_.enabled; }

    /**
     * Decide the fate of a connection accepted by @p worker whose
     * accept-queue sojourn was @p sojourn ticks. Increments offered and
     * the decision counter; the caller must follow through (serve,
     * serve degraded, or close) and call release() when an admitted or
     * degraded connection leaves service.
     */
    AdmitDecision decide(int worker, AdmitClass cls, Tick sojourn);

    /** An admitted/degraded connection finished (served, failed, or
     *  closed by the peer). */
    void release(int worker);

    /** @name Counters */
    /** @{ */
    std::uint64_t offered() const { return offered_; }
    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t degraded() const { return degraded_; }
    std::uint64_t shed() const
    {
        return shedDeadline_ + shedWorkerCap_ + shedPressure_;
    }
    std::uint64_t shedDeadline() const { return shedDeadline_; }
    std::uint64_t shedWorkerCap() const { return shedWorkerCap_; }
    std::uint64_t shedPressure() const { return shedPressure_; }
    std::uint64_t released() const { return released_; }
    std::uint64_t healthOffered() const { return healthOffered_; }
    std::uint64_t healthAdmitted() const { return healthAdmitted_; }
    /** release() calls with no in-flight connection (always a bug). */
    std::uint64_t releaseUnderflows() const { return releaseUnderflows_; }
    /** Reason behind the most recent kShed decision (for span trace
     *  attribution; meaningful only right after decide() returned
     *  kShed). */
    ShedReason lastShedReason() const { return lastShedReason_; }
    std::uint64_t inflightTotal() const;
    /** @} */

  private:
    OverloadConfig cfg_;
    const PressureState *pressure_;
    std::vector<std::uint64_t> inflight_;

    std::uint64_t offered_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t degraded_ = 0;
    std::uint64_t shedDeadline_ = 0;
    std::uint64_t shedWorkerCap_ = 0;
    std::uint64_t shedPressure_ = 0;
    std::uint64_t released_ = 0;
    std::uint64_t healthOffered_ = 0;
    std::uint64_t healthAdmitted_ = 0;
    std::uint64_t releaseUnderflows_ = 0;
    ShedReason lastShedReason_ = ShedReason::kDeadline;
};

} // namespace fsim

#endif // FSIM_OVERLOAD_ADMISSION_HH
