#include "sync/lock_registry.hh"

#include "sim/logging.hh"

namespace fsim
{

void
LockClassStats::bindCosts(CacheModel *c, Tick base_cost, Tick storm_cost)
{
    if (!costsBound) {
        costsBound = true;
        cache = c;
        baseCost = base_cost;
        stormCost = storm_cost;
        return;
    }
    fsim_assert(cache == c && baseCost == base_cost &&
                stormCost == storm_cost &&
                "every lock of a class must share its cache and costs");
}

LockClassStats *
LockRegistry::getClass(const std::string &name)
{
    auto it = byName_.find(name);
    if (it != byName_.end())
        return it->second;
    order_.push_back(std::make_unique<LockClassStats>());
    LockClassStats *cls = order_.back().get();
    cls->name = name;
    cls->traceId = static_cast<std::uint16_t>(order_.size() - 1);
    cls->tracer = tracer_;
    byName_[name] = cls;
    return cls;
}

void
LockRegistry::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    for (const auto &p : order_)
        p->tracer = tracer;
}

std::vector<const LockClassStats *>
LockRegistry::classes() const
{
    std::vector<const LockClassStats *> out;
    out.reserve(order_.size());
    for (const auto &p : order_)
        out.push_back(p.get());
    return out;
}

std::map<std::string, LockClassStats>
LockRegistry::snapshot() const
{
    std::map<std::string, LockClassStats> out;
    for (const auto &p : order_)
        out[p->name] = *p;
    return out;
}

std::uint64_t
LockRegistry::contentionDelta(
    const std::map<std::string, LockClassStats> &before,
    const std::string &name) const
{
    auto cur = byName_.find(name);
    if (cur == byName_.end())
        return 0;
    std::uint64_t base = 0;
    auto it = before.find(name);
    if (it != before.end())
        base = it->second.contentions;
    return cur->second->contentions - base;
}

} // namespace fsim
