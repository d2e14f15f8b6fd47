/**
 * @file
 * Ownership-based cache/coherence model.
 *
 * Every shared kernel object that matters for connection locality (socket
 * TCBs, table buckets, lock words, epoll instances) embeds a CacheLine,
 * the coherence state of its cache line, the way Linux embeds the lock
 * word in the object it guards: the model reads and writes the owner in
 * the object being touched, not in a side table. Accessing an object from
 * a core other than its current owner costs a remote-transfer penalty and
 * counts as an L3 miss; write accesses migrate ownership. Useful work
 * additionally charges implicit always-local accesses so that the
 * reported L3 miss *rate* stays in a realistic band (the paper's Figure
 * 5(a) reports 5-13%).
 */

#ifndef FSIM_CPU_CACHE_MODEL_HH
#define FSIM_CPU_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

class Tracer;

/**
 * Coherence state of one modelled cache line, stored in the object it
 * belongs to. A default-constructed line is cold: no core holds it, so
 * an object starts cold whenever it is (re)constructed or re-initialised.
 */
struct CacheLine
{
    CoreId owner = kInvalidCore;
};

/** Per-machine cache coherence model and L3 statistics. */
class CacheModel
{
  public:
    /**
     * @param n_cores Number of cores.
     * @param miss_penalty Cycles per remote-owned access within a NUMA
     *        node (shared L3).
     * @param node_size Cores per NUMA node (0 = single node). The
     *        paper's testbed is 2 x 12-core Xeon E5-2697v2, so lines
     *        crossing the socket boundary pay @p remote_penalty instead.
     * @param remote_penalty Cycles per cross-node transfer.
     */
    explicit CacheModel(int n_cores, Tick miss_penalty,
                        int node_size = 0, Tick remote_penalty = 0);

    /**
     * Access @p line from core @p c.
     *
     * @param write Whether ownership should migrate to @p c.
     * @param lines Cache lines the object spans (a TCB is several).
     * @return extra cycles caused by a remote transfer (0 on a hit).
     */
    Tick access(CoreId c, CacheLine &line, bool write = true,
                int lines = 1);

    /**
     * Charge @p n implicit local accesses to core @p c. A configurable
     * background fraction of them miss (cold app/kernel working set),
     * which anchors the absolute L3 miss rate; connection locality then
     * moves the rate by the coherence misses it saves.
     */
    void noteLocalAccesses(CoreId c, std::uint64_t n);

    /** Set the background miss rate charged by noteLocalAccesses. */
    void setBackgroundMissRate(double rate) { bgMissRate_ = rate; }

    /** Attach the machine tracer: transfer penalties are then charged
     *  to the cache-stall phase of the accessing core. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** @name Statistics */
    /** @{ */
    std::uint64_t accesses(CoreId c) const { return accesses_[c]; }
    std::uint64_t misses(CoreId c) const { return misses_[c]; }
    std::uint64_t totalAccesses() const;
    std::uint64_t totalMisses() const;
    /** @} */

    /** NUMA node of a core. */
    int node(CoreId c) const
    {
        return nodeSize_ > 0 ? c / nodeSize_ : 0;
    }

    int numCores() const { return static_cast<int>(accesses_.size()); }
    Tick missPenalty() const { return missPenalty_; }

  private:
    Tick missPenalty_;
    Tick remotePenalty_;
    int nodeSize_;
    double bgMissRate_ = 0.0;
    Tracer *tracer_ = nullptr;
    std::vector<double> bgAccum_;
    std::vector<std::uint64_t> accesses_;
    std::vector<std::uint64_t> misses_;
};

} // namespace fsim

#endif // FSIM_CPU_CACHE_MODEL_HH
