/**
 * @file
 * Ephemeral source-port allocator for active connections.
 *
 * Supports the standard rotating next-fit policy and the Fastsocket RFD
 * policy: pick a source port p with (p & mask) == core so that the reply's
 * destination port hashes back to the initiating core (section 3.3).
 * Uniqueness is per (destination address, destination port), like the
 * kernel's four-tuple-scoped port reuse.
 */

#ifndef FSIM_TCP_PORT_ALLOC_HH
#define FSIM_TCP_PORT_ALLOC_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.hh"
#include "sim/types.hh"

namespace fsim
{

/** Ephemeral port allocator. */
class PortAllocator
{
  public:
    /** @param lo,hi Inclusive ephemeral range (Linux default-ish). */
    explicit PortAllocator(Port lo = 32768, Port hi = 61000);

    /**
     * Allocate any free port toward @p dst : @p dport.
     *
     * @return 0 if the range is exhausted for this destination.
     */
    Port alloc(IpAddr dst, Port dport);

    /**
     * Allocate a port whose low bits encode @p core: (p & mask) == core.
     *
     * @param mask RFD hash mask, roundup_pow2(ncores)-1; core <= mask.
     * @return 0 if exhausted.
     */
    Port allocForCore(IpAddr dst, Port dport, CoreId core, Port mask);

    /**
     * Claim a specific port (used by RFD's candidate iteration).
     *
     * @return false if it is already in use.
     */
    bool claim(IpAddr dst, Port dport, Port p);

    /** Release a port. @return false if it was not allocated. */
    bool release(IpAddr dst, Port dport, Port p);

    bool inUse(IpAddr dst, Port dport, Port p) const;

    std::size_t inUseCount() const { return total_; }

    Port lo() const { return lo_; }
    Port hi() const { return hi_; }

  private:
    static std::uint64_t
    dkey(IpAddr dst, Port dport)
    {
        return (static_cast<std::uint64_t>(dst) << 16) | dport;
    }

    /** Per-destination in-use bitmap. A hash set would allocate a node
     *  per claimed port — once per connection, the exact churn the
     *  allocation audit forbids. 8 KB per destination, sized lazily to
     *  the whole 16-bit port space: RFD's candidates (claim/inUse) are
     *  not confined to [lo, hi]. */
    struct PortSet
    {
        static constexpr std::size_t kWords = 65536 / 64;
        std::vector<std::uint64_t> bits;

        bool
        test(Port p) const
        {
            return !bits.empty() &&
                   (bits[p >> 6] >> (p & 63)) & 1u;
        }

        void set(Port p) { bits[p >> 6] |= 1ull << (p & 63); }
        void clear(Port p) { bits[p >> 6] &= ~(1ull << (p & 63)); }
    };

    /** Bitmap for @p key, sized to cover every port. */
    PortSet &setFor(std::uint64_t key);

    Port lo_;
    Port hi_;
    Port hint_;
    /** Keyed by destination: a handful of long-lived entries (one per
     *  backend), so the map itself sees no steady-state churn. Empty
     *  sets are deliberately never erased — their capacity is the
     *  recycled resource. */
    std::unordered_map<std::uint64_t, PortSet> used_;
    std::unordered_map<std::uint64_t, Port> coreHints_;
    std::size_t total_ = 0;
};

} // namespace fsim

#endif // FSIM_TCP_PORT_ALLOC_HH
