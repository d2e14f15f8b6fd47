/**
 * @file
 * The established-connection hash table ("ehash").
 *
 * The stock kernel keeps one machine-wide instance whose buckets are
 * protected by per-bucket locks (the ehash.lock row of Table 1); Fastsocket
 * instead creates one instance per core (the Local Established Table,
 * section 3.2.2) — the same class is reused, and because each per-core
 * instance is only ever touched by its owning core, its lock acquisitions
 * never contend, exactly as the paper's design argues.
 *
 * Lookups charge a per-entry chain-walk cost on top of the base probe, so
 * chain growth (millions of connections over a fixed bucket array) shows
 * up as rising per-connection cycles. The global ehash is sized once at
 * boot like the kernel's; a private per-core table may grow at load
 * factor 1 because no other core ever holds references into it.
 *
 * Only the shared table keeps a SimSpinLock per bucket. A private table's
 * lock is only ever taken by its owner, so it can never wait: its bucket
 * carries just the lock word's cache line, and insert and remove charge
 * the lock's grant-and-hold tail (SimSpinLock::grantAndHold) on it. The
 * costs, the cache traffic and the ehash.lock lockstat row are those of
 * an uncontended SimSpinLock, at 4 bytes instead of 64 per bucket.
 */

#ifndef FSIM_TCP_ESTABLISHED_TABLE_HH
#define FSIM_TCP_ESTABLISHED_TABLE_HH

#include <cstdint>
#include <vector>

#include "cpu/cache_model.hh"
#include "cpu/cycle_costs.hh"
#include "net/packet.hh"
#include "sim/types.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"
#include "tcp/socket.hh"

namespace fsim
{

/** Hash table of established (and handshaking) connection sockets. */
class EstablishedTable
{
  public:
    /**
     * @param n_buckets Power-of-two bucket count.
     * @param lock_class Lockstat class name ("ehash.lock").
     * @param owner kInvalidCore for the shared, boot-sized global table
     *              (per-bucket SimSpinLocks); otherwise the one core
     *              that may insert and remove, and the table doubles its
     *              bucket array when the load factor exceeds 1.
     */
    EstablishedTable(int n_buckets, LockRegistry &locks, CacheModel &cache,
                     const CycleCosts &costs,
                     const char *lock_class = "ehash.lock",
                     CoreId owner = kInvalidCore);

    /**
     * Insert @p sock keyed by its rxTuple; charges the bucket lock. A
     * private table asserts that @p c is its owner.
     *
     * @return completion tick.
     */
    Tick insert(CoreId c, Tick t, Socket *sock);

    /**
     * Remove @p sock; charges the bucket lock. A private table asserts
     * that @p c is its owner.
     *
     * @return completion tick (unchanged if the socket was absent).
     */
    Tick remove(CoreId c, Tick t, Socket *sock);

    /** Lookup result plus the tick after the probe cost. */
    struct Lookup
    {
        Socket *sock = nullptr;
        Tick t = 0;
    };

    /** Find the socket matching an incoming packet's tuple. */
    Lookup lookup(CoreId c, Tick t, const FiveTuple &tuple);

    std::size_t size() const { return size_; }
    std::size_t bucketCount() const { return buckets_.size(); }

    /** @name Chain-walk cost counters (per-connection-cost forensics) */
    /** @{ */
    std::uint64_t lookups() const { return lookups_; }
    /** Chain entries walked past the bucket head, summed over lookups. */
    std::uint64_t probesWalked() const { return probesWalked_; }
    /** Cycles charged to lookups (base + chain walk + cache). */
    std::uint64_t lookupCycles() const { return lookupCycles_; }
    std::uint64_t resizes() const { return resizes_; }
    /** @} */

    /** All sockets (slow; for /proc walks and leak checks in tests). */
    std::vector<Socket *> all() const;

  private:
    /** Chains are intrusive (Socket::ehashNext/ehashPrev), insertion-
     *  ordered — same walk order as the vector they replaced, but
     *  inserting into an empty bucket never allocates. A bucket is what
     *  a lookup reads, the chain ends and the bucket's cache line, plus
     *  a private table's lock-word line in what would be padding. */
    struct Bucket
    {
        Socket *head = nullptr;
        Socket *tail = nullptr;
        CacheLine line;
        CacheLine lockLine;   //!< private tables only (owner_ valid)
    };
    static_assert(sizeof(Bucket) == 24);

    std::size_t bucketIndex(const FiveTuple &tuple) const;
    static void chainPushBack(Bucket &b, Socket *sock);
    static void chainUnlink(Bucket &b, Socket *sock);
    /** Take bucket @p i's lock from core @p c for @p hold cycles. */
    Tick runLocked(std::size_t i, CoreId c, Tick t, Tick hold);
    Tick maybeResize(Tick t);

    CacheModel &cache_;
    const CycleCosts &costs_;
    LockClassStats *lockClass_;
    std::vector<Bucket> buckets_;
    /** The shared table's per-bucket locks, parallel to buckets_ (empty
     *  in a private table): only insert and remove take them, so
     *  lookups never pull their lines. */
    std::vector<SimSpinLock> locks_;
    std::uint32_t mask_;
    std::size_t size_ = 0;
    CoreId owner_;
    std::uint64_t lookups_ = 0;
    std::uint64_t probesWalked_ = 0;
    std::uint64_t lookupCycles_ = 0;
    std::uint64_t resizes_ = 0;
};

} // namespace fsim

#endif // FSIM_TCP_ESTABLISHED_TABLE_HH
