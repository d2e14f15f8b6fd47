/**
 * @file
 * Open-addressing hash map with sticky storage for simulator hot paths.
 *
 * std::unordered_map allocates one node per element, which turns every
 * per-connection insert (TIME_WAIT index, load generator state, span
 * log) into steady-state heap traffic. FlatMap keeps keys and values in
 * flat arrays with linear probing and backward-shift deletion: erase
 * pulls each later entry of the probe run back into the hole unless
 * that would move it before its home slot, so runs stay contiguous and
 * no tombstones are left. Occupancy is the live size, nothing needs
 * purging, and the arrays are reallocated only when the live size
 * reaches a new high-water capacity; churn below it never touches the
 * allocator (the allocation-audit test enforces this end to end).
 *
 * Keys and values must be default-constructible and copyable. erase may
 * move other entries, so a pointer from find or insert is valid only
 * until the next insert or erase. forEach walks slot order, which
 * depends on insertion history — a determinism hazard, so callers sort
 * whatever they collect from it.
 */

#ifndef FSIM_SIM_FLAT_MAP_HH
#define FSIM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace fsim
{

/** Default hash for integer keys. A key's home slot is the hash's low
 *  bits, which std::hash leaves equal to the key's own (sequential ids
 *  and ports, packed tuples) and so packs into long probe runs; a
 *  golden-ratio multiply with the high half folded down spreads them. */
struct MixHash
{
    std::size_t operator()(std::uint64_t k) const
    {
        const std::uint64_t h = k * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(h ^ (h >> 29));
    }
};

/** Linear-probing hash map; capacity is sticky, always a power of 2. */
template <typename K, typename V, typename Hash = MixHash,
          typename Eq = std::equal_to<K>>
class FlatMap
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V *
    find(const K &key)
    {
        const std::size_t idx = locate(key);
        return idx == kNpos ? nullptr : &vals_[idx];
    }

    const V *
    find(const K &key) const
    {
        const std::size_t idx = locate(key);
        return idx == kNpos ? nullptr : &vals_[idx];
    }

    /**
     * Insert @p value under @p key.
     *
     * @return the stored value and whether it was inserted (false means
     *         the key already existed; the stored value is unchanged).
     */
    std::pair<V *, bool>
    insert(const K &key, V value)
    {
        // Keep occupancy under 3/4 so probe runs stay short.
        if ((size_ + 1) * 4 >= full_.size() * 3)
            grow(full_.empty() ? kMinCapacity : full_.size() * 2);

        const std::size_t idx = slotFor(key);
        if (full_[idx])
            return {&vals_[idx], false};
        full_[idx] = 1;
        keys_[idx] = key;
        vals_[idx] = std::move(value);
        ++size_;
        return {&vals_[idx], true};
    }

    /** Call @p fn(key, value) for every entry, in slot order. The map
     *  must not be modified during the walk. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < full_.size(); ++i)
            if (full_[i])
                fn(keys_[i], vals_[i]);
    }

    /** @return true if the key existed and was removed. */
    bool
    erase(const K &key)
    {
        std::size_t hole = locate(key);
        if (hole == kNpos)
            return false;
        // Backward shift: walk the rest of the run and move back every
        // entry whose home slot does not lie cyclically in (hole, j].
        const std::size_t mask = full_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; full_[j];
             j = (j + 1) & mask) {
            if (((j - home(keys_[j])) & mask) < ((j - hole) & mask))
                continue;
            keys_[hole] = std::move(keys_[j]);
            vals_[hole] = std::move(vals_[j]);
            hole = j;
        }
        full_[hole] = 0;
        keys_[hole] = K{};
        vals_[hole] = V{};
        --size_;
        return true;
    }

  private:
    static constexpr std::size_t kNpos = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    std::size_t
    home(const K &key) const
    {
        return Hash{}(key) & (full_.size() - 1);
    }

    /** The slot holding @p key, else the empty slot ending its run. */
    std::size_t
    slotFor(const K &key) const
    {
        const std::size_t mask = full_.size() - 1;
        std::size_t idx = home(key);
        while (full_[idx] && !Eq{}(keys_[idx], key))
            idx = (idx + 1) & mask;
        return idx;
    }

    std::size_t
    locate(const K &key) const
    {
        if (full_.empty())
            return kNpos;
        const std::size_t idx = slotFor(key);
        return full_[idx] ? idx : kNpos;
    }

    void
    grow(std::size_t cap)
    {
        fsim_assert((cap & (cap - 1)) == 0 && cap > size_);
        std::vector<std::uint8_t> full(cap, 0);
        std::vector<K> keys(cap);
        std::vector<V> vals(cap);
        full.swap(full_);
        keys.swap(keys_);
        vals.swap(vals_);
        // Re-insert everything: at most 3/8 full, insert cannot recurse.
        size_ = 0;
        for (std::size_t i = 0; i < full.size(); ++i)
            if (full[i])
                insert(keys[i], std::move(vals[i]));
    }

    std::vector<std::uint8_t> full_;
    std::vector<K> keys_;
    std::vector<V> vals_;
    std::size_t size_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_FLAT_MAP_HH
