/**
 * @file
 * Open-addressing hash map with sticky storage for simulator hot paths.
 *
 * std::unordered_map allocates one node per element, which turns every
 * per-connection insert (established hash, TIME_WAIT index, load
 * generator state) into steady-state heap traffic. FlatMap stores keys
 * and values in flat arrays with linear probing and tombstone deletion,
 * and — critically — recycles its backing arrays: rebuilds that purge
 * tombstones reuse a shadow set of arrays that is kept around between
 * rebuilds, so once the table has reached its high-water capacity,
 * insert/find/erase churn never touches the allocator. The
 * allocation-audit test enforces this end to end.
 *
 * Deliberately minimal: keys and values must be default-constructible
 * and copyable, and the only iteration is forEach, whose slot order
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

/** Linear-probing hash map; capacity is sticky, always a power of 2. */
template <typename K, typename V, typename Hash = std::hash<K>,
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
        // Keep occupancy (live + tombstones) under 3/4 so probes stay
        // short. Grow only when live entries justify it; otherwise
        // rebuild at the same capacity to purge tombstones.
        if (st_.empty() || (size_ + tombs_ + 1) * 4 >= st_.size() * 3)
            rehash(!st_.empty() && size_ * 2 < st_.size()
                       ? st_.size()
                       : (st_.empty() ? kMinCapacity : st_.size() * 2));

        const std::size_t mask = st_.size() - 1;
        std::size_t idx = Hash{}(key) & mask;
        std::size_t grave = kNpos;
        while (st_[idx] != kEmpty) {
            if (st_[idx] == kFull && Eq{}(keys_[idx], key))
                return {&vals_[idx], false};
            if (st_[idx] == kTomb && grave == kNpos)
                grave = idx;
            idx = (idx + 1) & mask;
        }
        if (grave != kNpos) {
            idx = grave;
            --tombs_;
        }
        st_[idx] = kFull;
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
        for (std::size_t i = 0; i < st_.size(); ++i)
            if (st_[i] == kFull)
                fn(keys_[i], vals_[i]);
    }

    /** @return true if the key existed and was removed. */
    bool
    erase(const K &key)
    {
        const std::size_t idx = locate(key);
        if (idx == kNpos)
            return false;
        st_[idx] = kTomb;
        keys_[idx] = K{};
        vals_[idx] = V{};
        --size_;
        ++tombs_;
        return true;
    }

  private:
    enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };

    static constexpr std::size_t kNpos = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    std::size_t
    locate(const K &key) const
    {
        if (st_.empty())
            return kNpos;
        const std::size_t mask = st_.size() - 1;
        std::size_t idx = Hash{}(key) & mask;
        while (st_[idx] != kEmpty) {
            if (st_[idx] == kFull && Eq{}(keys_[idx], key))
                return idx;
            idx = (idx + 1) & mask;
        }
        return kNpos;
    }

    void
    rehash(std::size_t cap)
    {
        fsim_assert((cap & (cap - 1)) == 0 && cap > size_);
        // The shadow arrays only ever grow (allocation happens at a new
        // high-water capacity); same-capacity tombstone purges reuse
        // them allocation-free.
        shadowSt_.assign(cap, kEmpty);
        if (shadowKeys_.size() != cap) {
            shadowKeys_.resize(cap);
            shadowVals_.resize(cap);
        }
        const std::size_t mask = cap - 1;
        for (std::size_t i = 0; i < st_.size(); ++i) {
            if (st_[i] != kFull)
                continue;
            std::size_t idx = Hash{}(keys_[i]) & mask;
            while (shadowSt_[idx] != kEmpty)
                idx = (idx + 1) & mask;
            shadowSt_[idx] = kFull;
            shadowKeys_[idx] = std::move(keys_[i]);
            shadowVals_[idx] = std::move(vals_[i]);
            keys_[i] = K{};
            vals_[i] = V{};
        }
        st_.swap(shadowSt_);
        keys_.swap(shadowKeys_);
        vals_.swap(shadowVals_);
        tombs_ = 0;
        // Retired arrays become next rebuild's shadow; bring them to the
        // new capacity now so the *next* same-size purge is clean too.
        if (shadowKeys_.size() != cap) {
            shadowKeys_.resize(cap);
            shadowVals_.resize(cap);
        }
    }

    std::vector<std::uint8_t> st_;
    std::vector<K> keys_;
    std::vector<V> vals_;
    std::vector<std::uint8_t> shadowSt_;
    std::vector<K> shadowKeys_;
    std::vector<V> shadowVals_;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_FLAT_MAP_HH
