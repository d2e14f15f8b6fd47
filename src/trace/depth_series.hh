/**
 * @file
 * Windowed max-depth series of one queue.
 *
 * At most kMaxBuckets equal-width buckets cover the window from the
 * origin; each bucket holds the largest depth noted in it. A note past
 * the last bucket merges adjacent buckets pairwise by max and doubles
 * the width until it fits. So the series always spans the whole window,
 * a coarsened bucket is at most 1/256 of the span noted, and every
 * bucket's peak is exact. The buckets are allocated on the first note
 * and reused across reset(), and noting never schedules anything.
 */

#ifndef FSIM_TRACE_DEPTH_SERIES_HH
#define FSIM_TRACE_DEPTH_SERIES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace fsim
{

/** Max queue depth per bucket over a window, in ≤ kMaxBuckets buckets. */
class DepthSeries
{
  public:
    static constexpr std::size_t kMaxBuckets = 512;

    /** Note that the queue held @p depth at @p tick (≥ the origin). */
    void
    note(Tick tick, std::uint32_t depth)
    {
        fsim_assert(tick >= origin_);
        if (peak_.empty())
            peak_.assign(kMaxBuckets, 0);
        const Tick off = tick - origin_;
        while ((off >> shift_) >= kMaxBuckets)
            coarsen();
        std::uint32_t &b = peak_[off >> shift_];
        b = std::max(b, depth + 1);
    }

    /** Forget every note and restart the series at @p origin. */
    void
    reset(Tick origin)
    {
        origin_ = origin;
        shift_ = 0;
        std::fill(peak_.begin(), peak_.end(), 0);
    }

    Tick width() const { return Tick{1} << shift_; }

    /** Call @p f(bucket start tick, peak depth) for each bucket that
     *  holds a note, in tick order. */
    template <typename F>
    void
    forEachBucket(F &&f) const
    {
        for (std::size_t i = 0; i < peak_.size(); ++i)
            if (peak_[i] != 0)
                f(origin_ + (Tick{i} << shift_), peak_[i] - 1);
    }

    /** Heap bytes held: zero until the first note. */
    std::size_t
    storageBytes() const
    {
        return peak_.capacity() * sizeof(std::uint32_t);
    }

  private:
    /** Halve the bucket count by merging neighbours; double the width. */
    void
    coarsen()
    {
        for (std::size_t i = 0; i < kMaxBuckets / 2; ++i)
            peak_[i] = std::max(peak_[2 * i], peak_[2 * i + 1]);
        std::fill(peak_.begin() + kMaxBuckets / 2, peak_.end(), 0);
        ++shift_;
    }

    Tick origin_ = 0;
    unsigned shift_ = 0;   //!< bucket width is 2^shift_ ticks
    /** Peak depth + 1 per bucket, so 0 marks a bucket with no note and
     *  merging is a plain max. */
    std::vector<std::uint32_t> peak_;
};

} // namespace fsim

#endif // FSIM_TRACE_DEPTH_SERIES_HH
