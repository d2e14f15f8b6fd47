#include "overload/slo.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/incident_log.hh"

namespace fsim
{

namespace
{

/** Success-ratio objective (error budget = 1 - this). */
constexpr double kSuccessObjective = 0.999;
/** Fraction of requests that must meet the latency objective. */
constexpr double kLatencyQuantile = 0.99;
constexpr double kFastBurnThreshold = 14.0;
constexpr double kSlowBurnThreshold = 2.0;
/** Trailing stat windows of the slow-burn arm. */
constexpr int kSlowWindows = 12;

} // anonymous namespace

SloTracker::SloTracker(const SloConfig &cfg) : cfg_(cfg)
{
    fsim_assert(cfg_.fastWindows > 0);
    SloObjective avail;
    avail.name = "availability";
    avail.errorBudget = 1.0 - kSuccessObjective;
    objectives_.push_back(avail);
    if (cfg_.latencyObjective > 0) {
        SloObjective lat;
        lat.name = "latency";
        lat.errorBudget = 1.0 - kLatencyQuantile;
        objectives_.push_back(lat);
    }
}

double
SloTracker::burnOver(const SloObjective &obj, int nwin)
{
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    const int have = static_cast<int>(obj.windows.size());
    for (int i = std::max(0, have - nwin); i < have; ++i) {
        good += obj.windows[static_cast<std::size_t>(i)].first;
        bad += obj.windows[static_cast<std::size_t>(i)].second;
    }
    const std::uint64_t total = good + bad;
    if (total == 0)
        return 0.0;
    const double ratio =
        static_cast<double>(bad) / static_cast<double>(total);
    return ratio / obj.errorBudget;
}

void
SloTracker::evalArm(SloObjective &obj, Tick now, bool fast)
{
    const double burn = fast ? obj.fastBurn : obj.slowBurn;
    const double thresh =
        fast ? kFastBurnThreshold : kSlowBurnThreshold;
    bool &active = fast ? obj.fastActive : obj.slowActive;
    int &incident = fast ? obj.fastIncident : obj.slowIncident;

    if (burn >= thresh && !active) {
        active = true;
        if (fast) {
            ++obj.fastAlerts;
            if (obj.firstFastAlert == 0)
                obj.firstFastAlert = now;
        } else {
            ++obj.slowAlerts;
            if (obj.firstSlowAlert == 0)
                obj.firstSlowAlert = now;
        }
        if (incidents_) {
            // One incident per firing: opened and detect-stamped at
            // the alert tick; target encodes objective + arm so no
            // machine/balancer stamp routing can touch it.
            const int idx = static_cast<int>(&obj - objectives_.data());
            const int target =
                kIncidentTargetBase + idx * 2 + (fast ? 0 : 1);
            incident = incidents_->open(IncidentKind::kSloBurn, target,
                                        now);
            incidents_->noteDetectById(incident, now);
        }
    } else if (burn < thresh && active) {
        active = false;
        if (incidents_ && incident >= 0) {
            incidents_->noteCleared(incident, now);
            incident = -1;
        }
    }
}

void
SloTracker::addWindow(Tick now, std::uint64_t ok, std::uint64_t failed,
                      std::uint64_t lat_misses)
{
    const int keep = std::max(cfg_.fastWindows, kSlowWindows);
    for (SloObjective &obj : objectives_) {
        std::uint64_t bad;
        std::uint64_t good;
        if (obj.name == "availability") {
            bad = failed;
            good = ok;
        } else {
            bad = std::min(lat_misses, ok);
            good = ok - bad;
        }
        obj.windows.emplace_back(good, bad);
        if (static_cast<int>(obj.windows.size()) > keep)
            obj.windows.erase(obj.windows.begin());
        obj.fastBurn = burnOver(obj, cfg_.fastWindows);
        obj.slowBurn = burnOver(obj, kSlowWindows);
        evalArm(obj, now, true);
        evalArm(obj, now, false);
    }
}

std::uint64_t
SloTracker::fastAlerts() const
{
    std::uint64_t n = 0;
    for (const SloObjective &o : objectives_)
        n += o.fastAlerts;
    return n;
}

std::uint64_t
SloTracker::slowAlerts() const
{
    std::uint64_t n = 0;
    for (const SloObjective &o : objectives_)
        n += o.slowAlerts;
    return n;
}

Tick
SloTracker::firstFastAlert() const
{
    Tick first = 0;
    for (const SloObjective &o : objectives_)
        if (o.firstFastAlert != 0 &&
            (first == 0 || o.firstFastAlert < first))
            first = o.firstFastAlert;
    return first;
}

} // namespace fsim
