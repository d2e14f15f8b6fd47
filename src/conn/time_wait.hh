/**
 * @file
 * Compact TIME_WAIT table.
 *
 * Linux does not keep a full tcp_sock for a connection in TIME_WAIT: it
 * swaps the TCB for a ~10x smaller inet_timewait_sock holding just the
 * tuple, the timestamps and the expiry, threaded on a shared reaper
 * timer. This table models that: when a connection enters TIME_WAIT its
 * Socket is destroyed and replaced by a 24-byte Entry; one reaper timer
 * per bucket (per core when the established tables are partitioned)
 * replaces the per-socket timers, so a million lingering connections arm
 * a handful of wheel entries instead of a million.
 *
 * Each Entry is stored once, in its bucket's expiry-ordered ring (the
 * linger is a constant, so insert order is expiry order). A tuple-keyed
 * index maps each lingering tuple to its ring position, 8 bytes, for the
 * two packets a TIME_WAIT tuple can still see: a retransmitted FIN
 * (re-ACK it) and a new SYN reusing the tuple (drop, or recycle under
 * tcp_tw_recycle). remove() drops the index entry and marks the ring
 * slot stale through it; a stale slot is skipped when it reaches the
 * head, so reaping probes the index once per live entry, to erase it.
 * A lingering connection costs a 24-byte ring entry and a 24-byte
 * index slot at their high-water capacities.
 */

#ifndef FSIM_CONN_TIME_WAIT_HH
#define FSIM_CONN_TIME_WAIT_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hh"
#include "sim/flat_map.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"

namespace fsim
{

/** Machine-wide registry of connections lingering in TIME_WAIT. */
class TimeWaitTable
{
  public:
    /** One lingering connection (the inet_timewait_sock analog). */
    struct Entry
    {
        FiveTuple tuple;            //!< rx orientation (saddr = peer)
        /** Entry still owns the local ephemeral port (active close
         *  without tcp_tw_reuse); the reaper must release it. */
        bool holdsPort = false;
        /** Removed from the index; the reaper skips it. Set only on a
         *  ring slot, never on an entry a caller sees. */
        bool stale = false;
        std::uint64_t expires = 0;  //!< absolute jiffy
    };
    static_assert(sizeof(Entry) == 24);

  private:
    struct TupleHash
    {
        std::size_t
        operator()(const FiveTuple &t) const
        {
            // flowHash alone is 32-bit; fold in the raw fields so index
            // collisions stay hash-map-internal.
            std::uint64_t h = flowHash(t);
            h = h * 0x9e3779b97f4a7c15ull + t.saddr;
            h = h * 0x9e3779b97f4a7c15ull + t.daddr;
            h = h * 0x9e3779b97f4a7c15ull +
                ((static_cast<std::uint64_t>(t.sport) << 16) | t.dport);
            return static_cast<std::size_t>(h);
        }
    };

    /** Where a lingering tuple's Entry is: its bucket, and the low 32
     *  bits of its ring position. A ring holds fewer than 2^32 entries,
     *  so those bits tell its entries apart. */
    struct Ref
    {
        std::uint32_t bucket = 0;
        std::uint32_t pos = 0;
    };

    using Index = FlatMap<FiveTuple, Ref, TupleHash>;

  public:
    /** Bytes of a ring entry and of an index slot: what one lingering
     *  connection holds at the containers' high-water capacities. */
    static constexpr std::size_t kRingEntryBytes = sizeof(Entry);
    static constexpr std::size_t kIndexSlotBytes = Index::slotBytes();

    /**
     * @param n_buckets One per core under per-core partitioning (entries
     *                  bucketed by closing core), else 1.
     */
    explicit TimeWaitTable(int n_buckets);

    /**
     * Add a lingering tuple to @p bucket.
     *
     * The linger must be a per-table constant (entries of a bucket are
     * kept in insert order and reaped from the head).
     */
    void add(int bucket, const FiveTuple &tuple, std::uint64_t expires,
             bool holds_port);

    /** Lookup a lingering entry (any bucket). @return nullptr if none.
     *  The pointer is valid until the next add, remove or reap. */
    const Entry *find(const FiveTuple &tuple) const;

    /**
     * Remove a lingering entry (recycle-on-SYN, or tests).
     *
     * @return true and copy the entry to @p out if it existed.
     */
    bool remove(const FiveTuple &tuple, Entry *out = nullptr);

    /**
     * Pop every entry of @p bucket whose expiry is <= @p now_jiffy into
     * @p reaped (in expiry order).
     *
     * @return expiry jiffy of the new head entry, or 0 if the bucket
     *         emptied.
     */
    std::uint64_t reapExpired(int bucket, std::uint64_t now_jiffy,
                              std::vector<Entry> &reaped);

    /** Expiry of @p bucket's head entry (0 if empty); pops any stale
     *  head slots left by remove(). */
    std::uint64_t headExpiry(int bucket);

    std::size_t size() const { return index_.size(); }
    std::size_t peakSize() const { return peak_; }
    int bucketCount() const { return static_cast<int>(rings_.size()); }

  private:
    static Ref
    refTo(int bucket, std::size_t pos)
    {
        return {static_cast<std::uint32_t>(bucket),
                static_cast<std::uint32_t>(pos)};
    }

    const Entry &entryAt(Ref ref) const;
    Entry &
    entryAt(Ref ref)
    {
        return const_cast<Entry &>(std::as_const(*this).entryAt(ref));
    }

    /** One expiry-ordered ring per bucket: every entry added to it and
     *  not yet popped, live or stale. Rings and the flat index keep the
     *  add/remove/reap churn off the allocator in steady state. */
    std::vector<RingQueue<Entry>> rings_;
    /** Each lingering tuple's ring slot. A ring slot it does not point
     *  at is marked stale. */
    Index index_;
    std::size_t peak_ = 0;
};

} // namespace fsim

#endif // FSIM_CONN_TIME_WAIT_HH
