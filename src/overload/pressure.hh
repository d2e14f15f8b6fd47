/**
 * @file
 * Machine-wide pressure state fed by the kernel's overload signals.
 *
 * The kernel reports accept-queue occupancy at every push/pop and every
 * SoftIRQ-budget drop; PressureState condenses those raw signals into a
 * three-level pressure reading with hysteresis that the admission
 * controller consults on each accepted connection. Everything here is
 * simulated state (it feeds admission decisions, which change behavior),
 * so updates must be deterministic and independent of tracing.
 */

#ifndef FSIM_OVERLOAD_PRESSURE_HH
#define FSIM_OVERLOAD_PRESSURE_HH

#include <cstdint>

#include "overload/overload_config.hh"
#include "sim/types.hh"

namespace fsim
{

/** Discrete machine pressure level, highest signal wins. */
enum class PressureLevel : std::uint8_t
{
    kNominal = 0,   //!< queues shallow; admit everything
    kElevated,      //!< watermark crossed; brownout candidates degrade
    kCritical,      //!< near overflow; shed non-priority admissions
};

/** Condensed pressure signals of one machine. */
class PressureState
{
  public:
    explicit PressureState(const OverloadConfig &cfg);

    /** @name Kernel-side signal feeds */
    /** @{ */
    /** Accept-queue occupancy changed: @p depth entries of @p backlog. */
    void noteAcceptQueue(std::size_t depth, std::size_t backlog);
    /** A packet was dropped by the per-core SoftIRQ budget. */
    void noteBacklogDrop();
    /** SoftIRQ queue depth observed at enqueue time (for the peak). */
    void noteSoftirqDepth(std::size_t depth);
    /** @} */

    PressureLevel level() const { return level_; }

    /** @name Counters (flow into the bench JSON overload block) */
    /** @{ */
    std::uint64_t backlogDrops() const { return backlogDrops_; }
    /** Level changes (any direction); determinism-fingerprinted. */
    std::uint64_t transitions() const { return transitions_; }
    /** Highest level ever reached. */
    PressureLevel peakLevel() const { return peak_; }
    std::size_t softirqDepthPeak() const { return softirqPeak_; }
    std::size_t acceptDepthPeak() const { return acceptPeak_; }
    /** @} */

  private:
    void setLevel(PressureLevel l);

    OverloadConfig cfg_;
    PressureLevel level_ = PressureLevel::kNominal;
    PressureLevel peak_ = PressureLevel::kNominal;
    std::uint64_t backlogDrops_ = 0;
    std::uint64_t transitions_ = 0;
    std::size_t softirqPeak_ = 0;
    std::size_t acceptPeak_ = 0;
};

} // namespace fsim

#endif // FSIM_OVERLOAD_PRESSURE_HH
