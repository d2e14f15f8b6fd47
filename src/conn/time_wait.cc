#include "conn/time_wait.hh"

#include "sim/logging.hh"

namespace fsim
{

TimeWaitTable::TimeWaitTable(int n_buckets)
{
    fsim_assert(n_buckets > 0);
    rings_.resize(n_buckets);
}

const TimeWaitTable::Entry &
TimeWaitTable::entryAt(Ref ref) const
{
    // Widen the 32-bit position by its distance from the ring's front.
    const RingQueue<Entry> &ring = rings_[ref.bucket];
    const std::size_t front = ring.frontPos();
    return ring.at(front + static_cast<std::uint32_t>(
                               ref.pos - static_cast<std::uint32_t>(front)));
}

void
TimeWaitTable::add(int bucket, const FiveTuple &tuple,
                   std::uint64_t expires, bool holds_port)
{
    fsim_assert(bucket >= 0 && bucket < bucketCount());
    RingQueue<Entry> &ring = rings_[bucket];
    fsim_assert(ring.size() < 0xffff'ffff);
    const std::size_t pos = ring.push_back(
        Entry{.tuple = tuple, .holdsPort = holds_port, .expires = expires});
    // A tuple cannot linger twice: the old entry is always removed
    // (recycled) before the tuple can complete another handshake.
    const bool inserted = index_.insert(tuple, refTo(bucket, pos)).second;
    fsim_assert(inserted);
    if (index_.size() > peak_)
        peak_ = index_.size();
}

const TimeWaitTable::Entry *
TimeWaitTable::find(const FiveTuple &tuple) const
{
    const Ref *ref = index_.find(tuple);
    return ref ? &entryAt(*ref) : nullptr;
}

bool
TimeWaitTable::remove(const FiveTuple &tuple, Entry *out)
{
    const Ref *ref = index_.find(tuple);
    if (!ref)
        return false;
    Entry &e = entryAt(*ref);
    if (out)
        *out = e;
    // The ring slot goes stale and is skipped at reap/headExpiry time;
    // eager middle-of-queue removal would be O(n) per recycled tuple.
    e.stale = true;
    index_.erase(tuple);
    return true;
}

std::uint64_t
TimeWaitTable::headExpiry(int bucket)
{
    fsim_assert(bucket >= 0 && bucket < bucketCount());
    RingQueue<Entry> &ring = rings_[bucket];
    while (!ring.empty() && ring.front().stale)
        ring.pop_front();
    return ring.empty() ? 0 : ring.front().expires;
}

std::uint64_t
TimeWaitTable::reapExpired(int bucket, std::uint64_t now_jiffy,
                           std::vector<Entry> &reaped)
{
    while (true) {
        std::uint64_t head = headExpiry(bucket);
        if (head == 0 || head > now_jiffy)
            return head;
        RingQueue<Entry> &ring = rings_[bucket];
        reaped.push_back(ring.front());
        index_.erase(ring.front().tuple);
        ring.pop_front();
    }
}

} // namespace fsim
