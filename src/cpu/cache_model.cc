#include "cpu/cache_model.hh"

#include <numeric>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace fsim
{

CacheModel::CacheModel(int n_cores, Tick miss_penalty, int node_size,
                       Tick remote_penalty)
    : missPenalty_(miss_penalty),
      remotePenalty_(remote_penalty ? remote_penalty : miss_penalty),
      nodeSize_(node_size),
      bgAccum_(n_cores, 0.0),
      accesses_(n_cores, 0),
      misses_(n_cores, 0)
{
    fsim_assert(n_cores > 0);
}

Tick
CacheModel::access(CoreId c, CacheLine &line, bool write, int lines)
{
    fsim_assert(c >= 0 && c < numCores());
    accesses_[c] += lines;
    CoreId &own = line.owner;
    if (own == c)
        return 0;
    misses_[c] += lines;
    // A cold first touch (no prior owner) claims the line for free in terms
    // of coherence traffic but still counts as a (compulsory) miss.
    Tick penalty;
    if (own == kInvalidCore)
        penalty = missPenalty_ / 4;
    else if (node(own) == node(c))
        penalty = missPenalty_;
    else
        penalty = remotePenalty_;   // cross-socket transfer
    if (write || own == kInvalidCore)
        own = c;
    Tick stall = penalty * static_cast<Tick>(lines);
    if (tracer_)
        tracer_->noteCacheStall(c, stall);
    return stall;
}

void
CacheModel::noteLocalAccesses(CoreId c, std::uint64_t n)
{
    fsim_assert(c >= 0 && c < numCores());
    accesses_[c] += n;
    bgAccum_[c] += static_cast<double>(n) * bgMissRate_;
    if (bgAccum_[c] >= 1.0) {
        auto whole = static_cast<std::uint64_t>(bgAccum_[c]);
        misses_[c] += whole;
        bgAccum_[c] -= static_cast<double>(whole);
    }
}

std::uint64_t
CacheModel::totalAccesses() const
{
    return std::accumulate(accesses_.begin(), accesses_.end(),
                           std::uint64_t{0});
}

std::uint64_t
CacheModel::totalMisses() const
{
    return std::accumulate(misses_.begin(), misses_.end(),
                           std::uint64_t{0});
}

} // namespace fsim
