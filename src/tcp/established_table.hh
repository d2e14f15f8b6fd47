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
 * up as rising per-connection cycles. A table may opt into load-factor
 * resizing; the global ehash is sized once at boot like the kernel's,
 * while the private per-core tables may grow because no other core ever
 * holds references into them.
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
     * @param resizable Double the bucket array when the load factor
     *                  exceeds 2 (per-core private tables only; the
     *                  global ehash is boot-sized like the kernel's).
     */
    EstablishedTable(int n_buckets, LockRegistry &locks, CacheModel &cache,
                     const CycleCosts &costs,
                     const char *lock_class = "ehash.lock",
                     bool resizable = false);

    /**
     * Insert @p sock keyed by its rxTuple; charges the bucket lock.
     *
     * @return completion tick.
     */
    Tick insert(CoreId c, Tick t, Socket *sock);

    /**
     * Remove @p sock; charges the bucket lock.
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
     *  inserting into an empty bucket never allocates. A bucket is just
     *  what a lookup reads: the chain ends and the bucket's cache line. */
    struct Bucket
    {
        Socket *head = nullptr;
        Socket *tail = nullptr;
        CacheLine line;
    };

    std::size_t bucketIndex(const FiveTuple &tuple) const;
    static void chainPushBack(Bucket &b, Socket *sock);
    static void chainUnlink(Bucket &b, Socket *sock);
    /** Fresh per-bucket locks for @p n buckets. */
    std::vector<SimSpinLock> makeLocks(std::size_t n) const;
    Tick maybeResize(CoreId c, Tick t);

    CacheModel &cache_;
    const CycleCosts &costs_;
    LockClassStats *lockClass_;
    std::vector<Bucket> buckets_;
    /** Per-bucket locks, parallel to buckets_: only insert and remove
     *  take them, so lookups never pull their lines. */
    std::vector<SimSpinLock> locks_;
    std::uint32_t mask_;
    std::size_t size_ = 0;
    bool resizable_;
    std::uint64_t lookups_ = 0;
    std::uint64_t probesWalked_ = 0;
    std::uint64_t lookupCycles_ = 0;
    std::uint64_t resizes_ = 0;
};

} // namespace fsim

#endif // FSIM_TCP_ESTABLISHED_TABLE_HH
