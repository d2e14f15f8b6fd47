/**
 * @file
 * The simulated network fabric between machines/endpoints.
 *
 * The wire delivers packets to the endpoint registered for the destination
 * IP after a fixed one-way delay. Bandwidth is not a bottleneck in the
 * paper's short-lived-connection experiments (64 B pages on 10GbE), so the
 * default wire models latency only.
 *
 * For fleet topologies (src/fleet) the same fabric generalizes two ways:
 *  - addLink() declares a directed pair of address ranges with their own
 *    propagation latency and line rate; packets crossing a link pay
 *    store-and-forward serialization against a per-direction busy horizon
 *    instead of the flat delay. With no links configured behavior is
 *    bit-identical to the historical latency-only wire.
 *  - attach/attachRange/transmit are virtual so a per-machine NetPort can
 *    interpose (TX gating for crashed machines) while the kernel keeps
 *    talking to a plain Wire*.
 */

#ifndef FSIM_NET_WIRE_HH
#define FSIM_NET_WIRE_HH

#include <cstdint>
#include <functional>

#include "check/fingerprint.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fsim
{

/** Latency-only packet fabric. */
class Wire
{
  public:
    using Endpoint = std::function<void(const Packet &)>;

    /**
     * @param eq Driving event queue.
     * @param one_way_delay Propagation delay per direction, in ticks.
     */
    Wire(EventQueue &eq, Tick one_way_delay);
    virtual ~Wire() = default;

    /** Attach the receive handler for a destination IP. Re-attaching an
     *  address overwrites the previous handler (machine restart relies
     *  on this). Handlers are stored flat, so a new address must not be
     *  attached from inside a handler: growing the table moves them. */
    virtual void attach(IpAddr addr, Endpoint handler);

    /** Attach one handler for a contiguous range [first, last]. */
    virtual void attachRange(IpAddr first, IpAddr last, Endpoint handler);

    /** Driving event queue (NetPort forwards onto its fabric's queue). */
    EventQueue &eventQueue() { return eq_; }

    /**
     * A directed link between two address sets: packets with
     * saddr in [aFirst, aLast] and daddr in [bFirst, bLast] (or the
     * reverse) traverse it, paying @p latency plus serialization at
     * @p gbps against a per-direction busy horizon (store-and-forward;
     * back-to-back packets queue behind each other). First matching
     * link wins. Packets matching no link use the flat default delay.
     */
    struct LinkSpec
    {
        IpAddr aFirst = 0;
        IpAddr aLast = 0;
        IpAddr bFirst = 0;
        IpAddr bLast = 0;
        Tick latency = 0;
        double gbps = 10.0;
    };

    void addLink(const LinkSpec &spec);

    /**
     * Drop each packet independently with probability @p rate (failure
     * injection; 0 disables). Deterministic given the seed.
     */
    void setLossRate(double rate, std::uint64_t seed = 99);

    /**
     * A scheduled wire-fault window [start, end): packets transmitted
     * inside it are subject to loss / reordering / duplication.
     *
     * Unlike setLossRate()'s sequential RNG draw, window fates are pure
     * content hashes of the packet (tuple, flags, payload, txSeq) and the
     * fault seed. The fate of a given packet therefore does not depend on
     * how many other packets preceded it, which keeps fates identical
     * across kernels that interleave transmissions differently — the
     * property the differential oracle relies on.
     */
    struct FaultWindow
    {
        Tick start = 0;
        Tick end = 0;
        double lossRate = 0.0;    //!< drop probability
        double reorderRate = 0.0; //!< extra-delay probability
        double dupRate = 0.0;     //!< duplicate-delivery probability
        Tick reorderJitter = 0;   //!< max extra delay for reordered packets
    };

    void addFaultWindow(const FaultWindow &w);

    /**
     * A scheduled network partition: while [start, end) is open, every
     * packet between address set A and address set B (either direction)
     * vanishes on the wire. Unlike a fault window's probabilistic loss
     * this is total — the severed-link / misprogrammed-ACL failure mode
     * — and it heals by itself when the window closes. In-flight
     * packets that departed before the cut still arrive (the partition
     * is evaluated at transmit time, like the fault windows).
     */
    struct PartitionSpec
    {
        IpAddr aFirst = 0;
        IpAddr aLast = 0;
        IpAddr bFirst = 0;
        IpAddr bLast = 0;
        Tick start = 0;
        Tick end = 0;
    };

    void addPartition(const PartitionSpec &p);

    /** Packets blackholed by an open partition window (also counted
     *  in lost() so packet conservation holds unchanged). */
    std::uint64_t partitionDropped() const { return partitionDropped_; }

    /** Seed folded into every content-hash fault decision. */
    void setFaultSeed(std::uint64_t seed) { faultSeed_ = seed; }

    /**
     * Transmit @p pkt at tick @p when (>= now).
     *
     * Delivery happens at @p when + delay. Packets to unknown addresses
     * are dropped and counted.
     */
    virtual void transmit(const Packet &pkt, Tick when);

    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t lost() const { return lost_; }
    /** Extra copies created by duplicate-fault windows. */
    std::uint64_t duplicated() const { return duplicated_; }
    Tick delay() const { return delay_; }

    /** @name Conservation + determinism instrumentation (src/check) */
    /** @{ */
    /** Packets handed to transmit(), before any drop/loss decision. */
    std::uint64_t transmitted() const { return transmitted_; }
    /** Packets scheduled on the wire but not yet delivered/dropped. */
    std::uint64_t inFlight() const { return inFlight_; }
    /**
     * Rolling hash over the delivery sequence: every delivered packet's
     * (tick, tuple, flags, payload) in delivery order. Two same-seed
     * runs must agree on this value bit-for-bit; tracing must never
     * perturb it.
     */
    std::uint64_t seqHash() const { return seqHash_.value(); }
    /** Packets that crossed a configured link. */
    std::uint64_t linkPackets() const { return linkPackets_; }
    /** Total ticks packets waited behind a busy link direction. */
    std::uint64_t linkQueuedTicks() const { return linkQueuedTicks_; }
    /** @} */

  private:
    const Endpoint *lookup(IpAddr addr) const;
    Tick linkDelay(const Packet &pkt, Tick when);
    void deliverAt(const Packet &pkt, Tick when);
    std::uint64_t faultHash(const Packet &pkt, std::uint64_t salt) const;
    bool faultChance(const Packet &pkt, std::uint64_t salt,
                     double rate) const;

    struct Range
    {
        IpAddr first;
        IpAddr last;
        Endpoint handler;
    };

    struct Link
    {
        LinkSpec spec;
        Tick ticksPer1024B = 0;  //!< serialization cost, integer math
        Tick busyUntil[2] = {0, 0};   //!< per-direction line horizon
    };

    EventQueue &eq_;
    Tick delay_;
    double lossRate_ = 0.0;
    Rng lossRng_{99};
    std::vector<FaultWindow> faultWindows_;
    std::vector<PartitionSpec> partitions_;
    std::uint64_t partitionDropped_ = 0;
    std::uint64_t faultSeed_ = 0;
    FlatMap<IpAddr, Endpoint> endpoints_;
    std::vector<Range> ranges_;
    std::vector<Link> links_;
    std::uint64_t linkPackets_ = 0;
    std::uint64_t linkQueuedTicks_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t lost_ = 0;
    std::uint64_t duplicated_ = 0;
    std::uint64_t transmitted_ = 0;
    std::uint64_t inFlight_ = 0;
    Fingerprint seqHash_;
};

} // namespace fsim

#endif // FSIM_NET_WIRE_HH
