/**
 * @file
 * Per-machine gateway onto a shared fleet fabric.
 *
 * A NetPort is-a Wire, so a Machine (and the KernelStack behind it) can
 * be built against it unchanged, but every attach/transmit forwards to
 * the real fabric. Its one extra power is TX gating: a crashed machine's
 * port is closed, so packets its zombie kernel keeps emitting (timer
 * retransmissions, delayed ACKs) silently die at the NIC edge instead of
 * reaching the fleet — exactly the observable behavior of a powered-off
 * box. RX-side death is modeled at the fabric by re-attaching the
 * machine's addresses to a blackhole or RST-responder handler; Wire
 * re-resolves handlers at delivery time, so in-flight packets follow.
 */

#ifndef FSIM_NET_NET_PORT_HH
#define FSIM_NET_NET_PORT_HH

#include <vector>

#include "net/wire.hh"

namespace fsim
{

/** Forwarding wire facade with a TX gate (machine power switch). */
class NetPort : public Wire
{
  public:
    explicit NetPort(Wire &fabric)
        : Wire(fabric.eventQueue(), fabric.delay()), fabric_(fabric)
    {
    }

    void
    attach(IpAddr addr, Endpoint handler) override
    {
        addrs_.push_back(addr);
        fabric_.attach(addr, std::move(handler));
    }

    void
    attachRange(IpAddr first, IpAddr last, Endpoint handler) override
    {
        fabric_.attachRange(first, last, std::move(handler));
    }

    void
    transmit(const Packet &pkt, Tick when) override
    {
        if (!txOpen_) {
            ++txSuppressed_;
            return;
        }
        if (degradeLossRate_ > 0.0 && degradeChance(pkt)) {
            ++degradeDropped_;
            return;
        }
        if (degradeDelay_ > 0) {
            ++degradeDelayed_;
            fabric_.transmit(pkt, when + degradeDelay_);
            return;
        }
        fabric_.transmit(pkt, when);
    }

    /** Open/close the TX gate (crash = close; restart gets a new port). */
    void setTxOpen(bool open) { txOpen_ = open; }

    /**
     * Degrade (or restore, with 0/0) this machine's NIC: drop
     * @p loss_rate of egress by packet-content hash and delay the rest
     * by @p extra_delay ticks. This is the gray half of
     * machine_degrade — data replies AND probe SYN-ACKs get slow/lossy
     * together, which is what a latency-aware health detector sees and
     * a binary liveness probe does not (the probe still answers).
     */
    void
    setDegrade(double loss_rate, Tick extra_delay, std::uint64_t seed)
    {
        degradeLossRate_ = loss_rate;
        degradeDelay_ = extra_delay;
        degradeSeed_ = seed;
    }

    /** Packets a dead machine tried to emit. */
    std::uint64_t txSuppressed() const { return txSuppressed_; }

    /** Egress eaten by the degraded NIC (content-hash fates). */
    std::uint64_t degradeDropped() const { return degradeDropped_; }

    /** Egress delayed by the degraded NIC. */
    std::uint64_t degradeDelayed() const { return degradeDelayed_; }

    /** Addresses attached through this port, in attach order. */
    const std::vector<IpAddr> &attachedAddrs() const { return addrs_; }

    Wire &fabric() { return fabric_; }

  private:
    /** Content-hash loss fate (splitmix64 over packet identity, time
     *  excluded), mirroring Wire::faultChance so same-seed runs agree
     *  regardless of transmit interleaving. */
    bool
    degradeChance(const Packet &pkt) const
    {
        std::uint64_t x = degradeSeed_ ^ 0x9e3779b97f4a7c15ULL;
        x ^= (static_cast<std::uint64_t>(pkt.tuple.saddr) << 32) |
             pkt.tuple.daddr;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= (static_cast<std::uint64_t>(pkt.tuple.sport) << 48) |
             (static_cast<std::uint64_t>(pkt.tuple.dport) << 32) |
             (static_cast<std::uint64_t>(pkt.flags) << 24) | pkt.txSeq;
        x *= 0x94d049bb133111ebULL;
        x ^= static_cast<std::uint64_t>(pkt.payload);
        x ^= x >> 31;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        double u = static_cast<double>(x >> 11) *
                   (1.0 / 9007199254740992.0);
        return u < degradeLossRate_;
    }

    Wire &fabric_;
    bool txOpen_ = true;
    double degradeLossRate_ = 0.0;
    Tick degradeDelay_ = 0;
    std::uint64_t degradeSeed_ = 0xde64ade;
    std::uint64_t txSuppressed_ = 0;
    std::uint64_t degradeDropped_ = 0;
    std::uint64_t degradeDelayed_ = 0;
    std::vector<IpAddr> addrs_;
};

} // namespace fsim

#endif // FSIM_NET_NET_PORT_HH
