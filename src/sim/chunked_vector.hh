/**
 * @file
 * Append-only vector stored in fixed-size chunks.
 *
 * A std::vector that grows to N elements allocates ~2N and copies
 * everything on each doubling, so a log that only ever appends holds up
 * to three times its live size at a growth step. ChunkedVector allocates
 * one chunk of kChunk elements at a time and never moves an element:
 * addresses stay stable, peak memory is the live size plus at most one
 * partly filled chunk, and the allocator is touched once per kChunk
 * appends. Elements are reached by index in append order.
 */

#ifndef FSIM_SIM_CHUNKED_VECTOR_HH
#define FSIM_SIM_CHUNKED_VECTOR_HH

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace fsim
{

/** Append-only, index-addressed, chunked storage (2^ChunkLog2 / chunk). */
template <typename T, unsigned ChunkLog2 = 12>
class ChunkedVector
{
  public:
    static constexpr std::size_t kChunk = std::size_t{1} << ChunkLog2;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i)
    {
        return chunks_[i >> ChunkLog2][i & (kChunk - 1)];
    }
    const T &operator[](std::size_t i) const
    {
        return chunks_[i >> ChunkLog2][i & (kChunk - 1)];
    }

    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /** Append @p v; the returned reference stays valid for the life of
     *  the container. */
    T &
    push_back(T v)
    {
        if (size_ == chunks_.size() * kChunk)
            chunks_.push_back(std::make_unique<T[]>(kChunk));
        T &slot = (*this)[size_++];
        slot = std::move(v);
        return slot;
    }

    /** Forward iterator in append order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const ChunkedVector *v, std::size_t i) : v_(v), i_(i)
        {}
        reference operator*() const { return (*v_)[i_]; }
        pointer operator->() const { return &(*v_)[i_]; }
        const_iterator &operator++() { ++i_; return *this; }
        const_iterator operator++(int)
        {
            const_iterator t = *this;
            ++i_;
            return t;
        }
        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const ChunkedVector *v_ = nullptr;
        std::size_t i_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_CHUNKED_VECTOR_HH
