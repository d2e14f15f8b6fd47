/**
 * @file
 * Fixed-capacity per-core trace event ring.
 *
 * The ring allocates its whole buffer on the first push and never
 * again, so a core that records nothing (every core of an untraced
 * machine) holds no ring storage; capacity() still reports the
 * configured size. When full the ring overwrites the oldest event
 * (ftrace's default overwrite mode), so it always holds the most recent
 * window of activity. Total pushes are counted, so the number of
 * overwritten events is always recoverable.
 */

#ifndef FSIM_TRACE_TRACE_RING_HH
#define FSIM_TRACE_TRACE_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_event.hh"

namespace fsim
{

/** One core's event ring (overwrite-oldest semantics). */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

    /** Record @p ev, overwriting the oldest event when full. */
    void
    push(const TraceEvent &ev)
    {
        if (buf_.empty())
            buf_.resize(capacity_);
        buf_[pushed_ % capacity_] = ev;
        ++pushed_;
    }

    std::size_t capacity() const { return capacity_; }

    /** Heap bytes held: zero until the first push, then the full ring. */
    std::size_t
    storageBytes() const
    {
        return buf_.capacity() * sizeof(TraceEvent);
    }

    /** Events currently held (≤ capacity). */
    std::size_t
    size() const
    {
        return pushed_ < capacity_ ? static_cast<std::size_t>(pushed_)
                                   : capacity_;
    }

    /** Total events ever pushed. */
    std::uint64_t pushed() const { return pushed_; }

    /** Events lost to overwriting (pushed - size). */
    std::uint64_t overwritten() const { return pushed_ - size(); }

    /** The @p i -th retained event, oldest first (0 ≤ i < size()). */
    const TraceEvent &
    at(std::size_t i) const
    {
        std::uint64_t oldest = pushed_ - size();
        return buf_[(oldest + i) % capacity_];
    }

    void
    clear()
    {
        pushed_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> buf_;
    std::uint64_t pushed_ = 0;
};

} // namespace fsim

#endif // FSIM_TRACE_TRACE_RING_HH
