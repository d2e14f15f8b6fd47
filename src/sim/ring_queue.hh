/**
 * @file
 * Fixed-overhead FIFO ring buffer for simulator hot paths.
 *
 * std::deque allocates and frees its block map as elements flow through,
 * which shows up as steady-state heap traffic in a FIFO of small values:
 * a listen socket's accept queue, the TIME_WAIT expiry FIFOs, the epoll
 * ready list. RingQueue keeps one contiguous power-of-two buffer that
 * only ever grows (capacity is retained across drain/fill cycles), so
 * pushes and pops in steady state touch no allocator at all — a
 * requirement enforced end-to-end by the allocation-audit test.
 *
 * The buffer keeps its high-water capacity, and a push and pop advance
 * around all of it, so a shallow steady queue in a once-deep ring still
 * sweeps cold lines. That suits small elements; a queue of large,
 * shallow-in-steady-state elements wants recycled nodes instead (the
 * CPU task queues use sim/node_slab.hh).
 *
 * Elements are numbered in push order from 0: push_back returns the
 * element's position, and at(pos) reaches it until it is popped, so a
 * side index can name a queued element without a copy of it (the
 * TIME_WAIT table does). Position p lives in slot p mod capacity.
 */

#ifndef FSIM_SIM_RING_QUEUE_HH
#define FSIM_SIM_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace fsim
{

/** Growable FIFO ring buffer; capacity is sticky, always a power of 2. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Append @p v. @return its position. */
    std::size_t
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        const std::size_t pos = first_ + size_;
        buf_[pos & (buf_.size() - 1)] = std::move(v);
        ++size_;
        return pos;
    }

    T &
    front()
    {
        fsim_assert(size_ > 0);
        return buf_[first_ & (buf_.size() - 1)];
    }

    /** Position of the front element (of the next push when empty). */
    std::size_t frontPos() const { return first_; }

    /** The queued element at position @p pos. */
    const T &
    at(std::size_t pos) const
    {
        fsim_assert(pos - first_ < size_);
        return buf_[pos & (buf_.size() - 1)];
    }

    void
    pop_front()
    {
        fsim_assert(size_ > 0);
        front() = T{};   // eager destroy, like deque::pop_front
        ++first_;
        --size_;
    }

    /** Drop every element; capacity is retained. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
    }

    /** Minimal forward iteration (front to back), for range-for. */
    class const_iterator
    {
      public:
        const_iterator(const RingQueue *q, std::size_t i) : q_(q), i_(i) {}

        const T &operator*() const { return q_->at(q_->first_ + i_); }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const RingQueue *q_;
        std::size_t i_;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    void
    grow()
    {
        const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t pos = first_; pos != first_ + size_; ++pos)
            next[pos & (cap - 1)] = std::move(buf_[pos & (buf_.size() - 1)]);
        buf_ = std::move(next);
    }

    std::vector<T> buf_;
    std::size_t first_ = 0;   //!< position of the front element
    std::size_t size_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_RING_QUEUE_HH
