#include "overload/admission.hh"

#include "sim/logging.hh"

namespace fsim
{

AdmissionController::AdmissionController(const OverloadConfig &cfg,
                                         const PressureState *pressure,
                                         int workers)
    : cfg_(cfg), pressure_(pressure),
      inflight_(static_cast<std::size_t>(workers > 0 ? workers : 1), 0)
{
}

AdmitDecision
AdmissionController::decide(int worker, AdmitClass cls, Tick sojourn)
{
    fsim_assert(worker >= 0 &&
                static_cast<std::size_t>(worker) < inflight_.size());
    ++offered_;
    if (cls == AdmitClass::kHealth)
        ++healthOffered_;

    // Health/control traffic is exempt from every admission policy: a
    // load balancer that cannot reach its health endpoint under load
    // will eject the very server that is still doing useful work.
    if (cls != AdmitClass::kHealth) {
        if (cfg_.queueDeadline > 0 && sojourn > cfg_.queueDeadline) {
            // The client already waited longer than the deadline in the
            // accept queue; odds are it gave up (or will before the
            // response lands). Serving it is wasted work — shed.
            ++shedDeadline_;
            lastShedReason_ = ShedReason::kDeadline;
            return AdmitDecision::kShed;
        }
        if (cfg_.workerCap > 0 &&
            inflight_[static_cast<std::size_t>(worker)] >=
                static_cast<std::uint64_t>(cfg_.workerCap)) {
            ++shedWorkerCap_;
            lastShedReason_ = ShedReason::kWorkerCap;
            return AdmitDecision::kShed;
        }
        PressureLevel lvl = pressure_ ? pressure_->level()
                                      : PressureLevel::kNominal;
        if (lvl == PressureLevel::kCritical) {
            ++shedPressure_;
            lastShedReason_ = ShedReason::kPressure;
            return AdmitDecision::kShed;
        }
        if (lvl == PressureLevel::kElevated && cfg_.brownout) {
            ++degraded_;
            ++inflight_[static_cast<std::size_t>(worker)];
            return AdmitDecision::kDegrade;
        }
    }

    ++admitted_;
    if (cls == AdmitClass::kHealth)
        ++healthAdmitted_;
    ++inflight_[static_cast<std::size_t>(worker)];
    return AdmitDecision::kAdmit;
}

void
AdmissionController::release(int worker)
{
    fsim_assert(worker >= 0 &&
                static_cast<std::size_t>(worker) < inflight_.size());
    std::uint64_t &n = inflight_[static_cast<std::size_t>(worker)];
    if (n == 0) {
        ++releaseUnderflows_;
        return;
    }
    --n;
    ++released_;
}

std::uint64_t
AdmissionController::inflightTotal() const
{
    std::uint64_t total = 0;
    for (std::uint64_t n : inflight_)
        total += n;
    return total;
}

} // namespace fsim
