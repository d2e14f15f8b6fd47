#include "tcp/established_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fsim
{

namespace
{
/** Resizing stops here: 1M buckets covers the bench's 2M-entry worst
 *  case at load factor 2 without unbounded allocation. */
constexpr std::size_t kMaxBuckets = 1u << 20;

/**
 * Decorrelate the bucket index from the NIC's RSS hash. The NIC picks
 * the receive queue from flowHash too, so every flow landing on a core
 * shares residue classes of that hash — masking it directly would leave
 * a per-core table using only ~1/ncores of its buckets (chains ncores
 * times longer than the load factor suggests). Linux dodges the same
 * trap by giving the ehash its own secret (inet_ehashfn); a splitmix64
 * finalizer plays that role here.
 */
std::uint32_t
ehashMix(std::uint32_t h)
{
    std::uint64_t x = static_cast<std::uint64_t>(h) +
                      0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::uint32_t>(x ^ (x >> 31));
}
} // namespace

EstablishedTable::EstablishedTable(int n_buckets, LockRegistry &locks,
                                   CacheModel &cache,
                                   const CycleCosts &costs,
                                   const char *lock_class, bool resizable)
    : cache_(cache), costs_(costs), lockClass_(locks.getClass(lock_class)),
      resizable_(resizable)
{
    fsim_assert(n_buckets > 0 && (n_buckets & (n_buckets - 1)) == 0);
    buckets_.resize(n_buckets);
    locks_ = makeLocks(buckets_.size());
    mask_ = static_cast<std::uint32_t>(n_buckets - 1);
}

std::vector<SimSpinLock>
EstablishedTable::makeLocks(std::size_t n) const
{
    std::vector<SimSpinLock> locks(n);
    for (SimSpinLock &l : locks)
        l.init(lockClass_, &cache_, costs_.lockAcquireBase,
               costs_.lockHandoffStorm);
    return locks;
}

void
EstablishedTable::chainPushBack(Bucket &b, Socket *sock)
{
    sock->ehashNext = nullptr;
    sock->ehashPrev = b.tail;
    if (b.tail != nullptr)
        b.tail->ehashNext = sock;
    else
        b.head = sock;
    b.tail = sock;
}

void
EstablishedTable::chainUnlink(Bucket &b, Socket *sock)
{
    if (sock->ehashPrev != nullptr)
        sock->ehashPrev->ehashNext = sock->ehashNext;
    else
        b.head = sock->ehashNext;
    if (sock->ehashNext != nullptr)
        sock->ehashNext->ehashPrev = sock->ehashPrev;
    else
        b.tail = sock->ehashPrev;
    sock->ehashNext = nullptr;
    sock->ehashPrev = nullptr;
}

std::size_t
EstablishedTable::bucketIndex(const FiveTuple &tuple) const
{
    return ehashMix(flowHash(tuple)) & mask_;
}

Tick
EstablishedTable::maybeResize(CoreId, Tick t)
{
    // Double at load factor 1 so chains stay O(1) at any population —
    // the per-core analog of Linux sizing the boot-time ehash so load
    // stays well under a handful of entries per bucket.
    if (!resizable_ || size_ <= buckets_.size() ||
        buckets_.size() >= kMaxBuckets)
        return t;

    // The grown buckets and their locks start cold, like the freshly
    // allocated table the kernel would rehash into.
    std::vector<Bucket> grown(buckets_.size() * 2);
    mask_ = static_cast<std::uint32_t>(grown.size() - 1);
    std::size_t moved = 0;
    for (Bucket &b : buckets_) {
        Socket *s = b.head;
        while (s != nullptr) {
            Socket *next = s->ehashNext;
            chainPushBack(grown[bucketIndex(s->rxTuple)], s);
            ++moved;
            s = next;
        }
    }
    buckets_ = std::move(grown);
    locks_ = makeLocks(buckets_.size());
    ++resizes_;
    // Rehash touches every entry once; only this core can observe the
    // table (resizable tables are per-core private), so the cost is a
    // straight-line walk rather than a lock storm.
    return t + static_cast<Tick>(moved) * costs_.ehashChainProbe;
}

Tick
EstablishedTable::insert(CoreId c, Tick t, Socket *sock)
{
    const std::size_t i = bucketIndex(sock->rxTuple);
    Bucket &b = buckets_[i];
    // The bucket line is written inside the critical section; its
    // transfer penalty extends the hold the next waiter sees.
    Tick penalty = cache_.access(c, b.line, /*write=*/true);
    Tick end = locks_[i].runLocked(c, t, costs_.ehashInsertHold + penalty);
    chainPushBack(b, sock);
    ++size_;
    return maybeResize(c, end);
}

Tick
EstablishedTable::remove(CoreId c, Tick t, Socket *sock)
{
    const std::size_t i = bucketIndex(sock->rxTuple);
    Bucket &b = buckets_[i];
    Tick penalty = cache_.access(c, b.line, /*write=*/true);
    Tick end = locks_[i].runLocked(c, t, costs_.ehashInsertHold + penalty);
    for (Socket *s = b.head; s != nullptr; s = s->ehashNext) {
        if (s == sock) {
            chainUnlink(b, sock);
            --size_;
            break;
        }
    }
    return end;
}

EstablishedTable::Lookup
EstablishedTable::lookup(CoreId c, Tick t, const FiveTuple &tuple)
{
    Bucket &b = buckets_[bucketIndex(tuple)];
    Lookup out;
    Tick begin = t;
    t += costs_.ehashLookup;
    t += cache_.access(c, b.line, /*write=*/false);
    std::uint64_t walked = 0;
    for (Socket *s = b.head; s != nullptr; s = s->ehashNext) {
        if (s->rxTuple == tuple) {
            out.sock = s;
            break;
        }
        ++walked;
    }
    // Each entry walked past the bucket head is another tuple compare
    // plus a dependent pointer chase; this is where a fixed-size global
    // ehash hurts at millions of connections (avg chain = size/buckets).
    t += static_cast<Tick>(walked) * costs_.ehashChainProbe;
    ++lookups_;
    probesWalked_ += walked;
    lookupCycles_ += static_cast<std::uint64_t>(t - begin);
    out.t = t;
    return out;
}

std::vector<Socket *>
EstablishedTable::all() const
{
    std::vector<Socket *> out;
    out.reserve(size_);
    for (const Bucket &b : buckets_)
        for (Socket *s = b.head; s != nullptr; s = s->ehashNext)
            out.push_back(s);
    return out;
}

} // namespace fsim
