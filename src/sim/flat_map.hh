/**
 * @file
 * Open-addressing hash map with sticky storage for simulator hot paths.
 *
 * std::unordered_map allocates one node per element, which turns every
 * per-connection insert (TIME_WAIT index, load generator state, span
 * log) into steady-state heap traffic. FlatMap keeps each entry's key,
 * value and occupancy flag together in one flat slot array, so a probe
 * step touches one slot rather than three arrays. It probes linearly and
 * deletes by backward shift: erase pulls each later entry of the probe
 * run back into the hole unless that would move it before its home
 * slot, so runs stay contiguous and no tombstones are left. Occupancy
 * is the live size, nothing needs purging, and the slot array is
 * reallocated only when the live size reaches a new high-water
 * capacity; churn below it never touches the allocator (the
 * allocation-audit test enforces this end to end).
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

    /** Bytes per slot: the capacity's unit of storage. */
    static constexpr std::size_t slotBytes() { return sizeof(Slot); }

    V *
    find(const K &key)
    {
        const std::size_t idx = locate(key);
        return idx == kNpos ? nullptr : &slots_[idx].value;
    }

    const V *
    find(const K &key) const
    {
        const std::size_t idx = locate(key);
        return idx == kNpos ? nullptr : &slots_[idx].value;
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
        if ((size_ + 1) * 4 >= slots_.size() * 3)
            grow(slots_.empty() ? kMinCapacity : slots_.size() * 2);

        Slot &slot = slots_[slotFor(key)];
        if (slot.full)
            return {&slot.value, false};
        slot.full = true;
        slot.key = key;
        slot.value = std::move(value);
        ++size_;
        return {&slot.value, true};
    }

    /** Call @p fn(key, value) for every entry, in slot order. The map
     *  must not be modified during the walk. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.full)
                fn(slot.key, slot.value);
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
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].full;
             j = (j + 1) & mask) {
            if (((j - home(slots_[j].key)) & mask) < ((j - hole) & mask))
                continue;
            slots_[hole] = std::move(slots_[j]);
            hole = j;
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

  private:
    static constexpr std::size_t kNpos = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    struct Slot
    {
        K key{};
        V value{};
        bool full = false;
    };

    std::size_t
    home(const K &key) const
    {
        return Hash{}(key) & (slots_.size() - 1);
    }

    /** The slot holding @p key, else the empty slot ending its run. */
    std::size_t
    slotFor(const K &key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t idx = home(key);
        while (slots_[idx].full && !Eq{}(slots_[idx].key, key))
            idx = (idx + 1) & mask;
        return idx;
    }

    std::size_t
    locate(const K &key) const
    {
        if (slots_.empty())
            return kNpos;
        const std::size_t idx = slotFor(key);
        return slots_[idx].full ? idx : kNpos;
    }

    void
    grow(std::size_t cap)
    {
        fsim_assert((cap & (cap - 1)) == 0 && cap > size_);
        std::vector<Slot> old(cap);
        old.swap(slots_);
        // Re-insert everything: at most 3/8 full, insert cannot recurse.
        size_ = 0;
        for (Slot &slot : old)
            if (slot.full)
                insert(slot.key, std::move(slot.value));
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_FLAT_MAP_HH
