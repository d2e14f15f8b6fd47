/**
 * @file
 * The two-copy TIME_WAIT table, kept as a test oracle.
 *
 * This is the TimeWaitTable the simulator shipped with before each entry
 * was stored once: the tuple index holds a full copy of every entry plus
 * its bucket and a generation stamp, and each bucket's expiry FIFO holds
 * a (tuple, generation) slot per add, stale once the stamps differ. The
 * differential test (test_time_wait_diff.cc) drives it and the
 * single-copy table through the same operations and requires the same
 * results. The logic is verbatim; only the FIFO is a std::deque instead
 * of a RingQueue, so the oracle shares no ring code with the table it
 * checks. Do not "improve" it: its value is that it keeps the exact
 * find/remove/reap results every committed fingerprint was recorded
 * under.
 */

#ifndef FSIM_TESTS_REFERENCE_TIME_WAIT_HH
#define FSIM_TESTS_REFERENCE_TIME_WAIT_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/packet.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace fsim
{

/** The index-plus-FIFO TIME_WAIT table, frozen. */
class ReferenceTimeWaitTable
{
  public:
    struct Entry
    {
        FiveTuple tuple;
        std::uint64_t expires = 0;
        bool holdsPort = false;
    };

    explicit ReferenceTimeWaitTable(int n_buckets)
    {
        fsim_assert(n_buckets > 0);
        fifos_.resize(n_buckets);
    }

    void
    add(int bucket, const FiveTuple &tuple, std::uint64_t expires,
        bool holds_port)
    {
        fsim_assert(bucket >= 0 && bucket < bucketCount());
        TupleKey key{tuple};
        std::uint64_t gen = nextGen_++;
        auto [slot, inserted] =
            index_.insert(key, IndexedEntry{{tuple, expires, holds_port},
                                            bucket, gen});
        fsim_assert(inserted);
        (void)slot;
        fifos_[bucket].push_back(FifoSlot{key, gen});
        if (index_.size() > peak_)
            peak_ = index_.size();
    }

    const Entry *
    find(const FiveTuple &tuple) const
    {
        const IndexedEntry *ie = index_.find(TupleKey{tuple});
        return ie ? &ie->entry : nullptr;
    }

    bool
    remove(const FiveTuple &tuple, Entry *out = nullptr)
    {
        const TupleKey key{tuple};
        const IndexedEntry *ie = index_.find(key);
        if (!ie)
            return false;
        if (out)
            *out = ie->entry;
        index_.erase(key);
        return true;
    }

    std::uint64_t
    headExpiry(int bucket)
    {
        fsim_assert(bucket >= 0 && bucket < bucketCount());
        auto &fifo = fifos_[bucket];
        while (!fifo.empty()) {
            const IndexedEntry *ie = index_.find(fifo.front().key);
            if (ie && ie->gen == fifo.front().gen)
                return ie->entry.expires;
            fifo.pop_front();
        }
        return 0;
    }

    std::uint64_t
    reapExpired(int bucket, std::uint64_t now_jiffy,
                std::vector<Entry> &reaped)
    {
        while (true) {
            std::uint64_t head = headExpiry(bucket);
            if (head == 0 || head > now_jiffy)
                return head;
            auto &fifo = fifos_[bucket];
            const TupleKey key = fifo.front().key;
            const IndexedEntry *ie = index_.find(key);
            fsim_assert(ie != nullptr);
            reaped.push_back(ie->entry);
            index_.erase(key);
            fifo.pop_front();
        }
    }

    std::size_t size() const { return index_.size(); }
    std::size_t peakSize() const { return peak_; }
    int bucketCount() const { return static_cast<int>(fifos_.size()); }

  private:
    struct TupleKey
    {
        FiveTuple t;

        bool operator==(const TupleKey &o) const { return t == o.t; }
    };

    struct TupleKeyHash
    {
        std::size_t
        operator()(const TupleKey &k) const
        {
            std::uint64_t h = flowHash(k.t);
            h = h * 0x9e3779b97f4a7c15ull + k.t.saddr;
            h = h * 0x9e3779b97f4a7c15ull + k.t.daddr;
            h = h * 0x9e3779b97f4a7c15ull +
                ((static_cast<std::uint64_t>(k.t.sport) << 16) |
                 k.t.dport);
            return static_cast<std::size_t>(h);
        }
    };

    struct IndexedEntry
    {
        Entry entry;
        int bucket = 0;
        std::uint64_t gen = 0;
    };

    struct FifoSlot
    {
        TupleKey key;
        std::uint64_t gen = 0;
    };

    std::vector<std::deque<FifoSlot>> fifos_;
    FlatMap<TupleKey, IndexedEntry, TupleKeyHash> index_;
    std::uint64_t nextGen_ = 1;
    std::size_t peak_ = 0;
};

} // namespace fsim

#endif // FSIM_TESTS_REFERENCE_TIME_WAIT_HH
