#include "trace/incident_log.hh"

#include "check/fingerprint.hh"

namespace fsim
{

int
IncidentLog::open(IncidentKind kind, int target, Tick injectAt)
{
    Incident inc;
    inc.kind = kind;
    inc.target = target;
    inc.injectAt = injectAt;
    incidents_.push_back(inc);
    return static_cast<int>(incidents_.size()) - 1;
}

void
IncidentLog::noteCleared(int id, Tick t)
{
    Incident &inc = incidents_.at(id);
    if (!inc.cleared) {
        inc.cleared = true;
        inc.clearAt = t;
    }
}

Incident *
IncidentLog::latestFor(int target, Tick t)
{
    // Exact-target match first; a fleet-wide incident (target -1) whose
    // fault is still in force is the fallback, so group partitions
    // still collect the ejections they cause.
    for (auto it = incidents_.rbegin(); it != incidents_.rend(); ++it) {
        if (it->target == target && it->injectAt <= t)
            return &*it;
    }
    for (auto it = incidents_.rbegin(); it != incidents_.rend(); ++it) {
        if (it->target == -1 && it->injectAt <= t &&
            (!it->cleared || it->clearAt > t))
            return &*it;
    }
    return nullptr;
}

void
IncidentLog::noteDetect(int target, Tick t)
{
    Incident *inc = latestFor(target, t);
    if (inc && !inc->detected) {
        inc->detected = true;
        inc->detectAt = t;
    }
}

void
IncidentLog::noteDetectById(int id, Tick t)
{
    Incident &inc = incidents_.at(id);
    if (!inc.detected) {
        inc.detected = true;
        inc.detectAt = t;
    }
}

void
IncidentLog::noteEject(int target, Tick t)
{
    Incident *inc = latestFor(target, t);
    if (!inc)
        return;
    // An ejection without a prior suspicion stamp still detected the
    // fault — at the same moment it acted.
    if (!inc->detected) {
        inc->detected = true;
        inc->detectAt = t;
    }
    if (!inc->ejected) {
        inc->ejected = true;
        inc->ejectAt = t;
    }
}

void
IncidentLog::noteRecover(int target, Tick t)
{
    Incident *inc = latestFor(target, t);
    if (inc && inc->ejected && !inc->recovered) {
        inc->recovered = true;
        inc->recoverAt = t;
    }
}

std::uint64_t
IncidentLog::hash() const
{
    Fingerprint fp;
    for (const Incident &inc : incidents_) {
        fp.mix(static_cast<std::uint64_t>(inc.kind));
        fp.mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(inc.target)));
        fp.mix(static_cast<std::uint64_t>(inc.injectAt));
        const std::uint64_t none = ~std::uint64_t{0};
        fp.mix(inc.cleared ? static_cast<std::uint64_t>(inc.clearAt)
                           : none);
        fp.mix(inc.detected ? static_cast<std::uint64_t>(inc.detectAt)
                            : none);
        fp.mix(inc.ejected ? static_cast<std::uint64_t>(inc.ejectAt)
                           : none);
        fp.mix(inc.recovered ? static_cast<std::uint64_t>(inc.recoverAt)
                             : none);
    }
    return fp.value();
}

} // namespace fsim
