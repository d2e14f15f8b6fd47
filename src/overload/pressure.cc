#include "overload/pressure.hh"

namespace fsim
{

PressureState::PressureState(const OverloadConfig &cfg)
    : cfg_(cfg)
{
}

void
PressureState::setLevel(PressureLevel l)
{
    if (l == level_)
        return;
    level_ = l;
    ++transitions_;
    if (static_cast<int>(l) > static_cast<int>(peak_))
        peak_ = l;
}

void
PressureState::noteAcceptQueue(std::size_t depth, std::size_t backlog)
{
    if (!cfg_.enabled || backlog == 0)
        return;
    if (depth > acceptPeak_)
        acceptPeak_ = depth;
    double occ = static_cast<double>(depth) /
                 static_cast<double>(backlog);
    // Hysteresis: escalation is immediate, release only once the queue
    // drains below the low watermark — a queue oscillating around the
    // high watermark must not flap the admission policy per packet.
    if (occ >= cfg_.acceptCriticalWatermark) {
        setLevel(PressureLevel::kCritical);
    } else if (occ >= cfg_.acceptHighWatermark) {
        if (level_ != PressureLevel::kCritical)
            setLevel(PressureLevel::kElevated);
    } else if (occ <= cfg_.acceptLowWatermark) {
        setLevel(PressureLevel::kNominal);
    } else if (level_ == PressureLevel::kCritical) {
        // Between low and high: critical de-escalates to elevated.
        setLevel(PressureLevel::kElevated);
    }
}

void
PressureState::noteBacklogDrop()
{
    ++backlogDrops_;
}

void
PressureState::noteSoftirqDepth(std::size_t depth)
{
    if (depth > softirqPeak_)
        softirqPeak_ = depth;
}

} // namespace fsim
