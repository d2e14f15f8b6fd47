/**
 * @file
 * SYN-flood attacker: an ideal wire endpoint that sprays SYNs at the
 * server's listen addresses and never answers the SYN-ACKs, so the
 * handshakes can never complete. Each half-open connection pins a
 * SynRcvd TCB (and a SYN-queue slot) on the victim until the kernel's
 * half-open reaper fires — exactly the resource-exhaustion attack SYN
 * cookies exist to absorb.
 *
 * The attacker is fully deterministic: SYN arrival ticks are computed
 * from the window bounds and rate (fixed spacing), and source tuples
 * rotate through a dedicated attacker address range, so armed floods
 * keep same-seed runs bit-identical.
 */

#ifndef FSIM_APP_SYN_FLOOD_HH
#define FSIM_APP_SYN_FLOOD_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace fsim
{

/** Deterministic SYN-flood source. */
class SynFlood
{
  public:
    /** Attacker source range: 198.18.0.0/15 (RFC 2544 benchmark space),
     *  disjoint from client (172.16/12) and backend (10/8) ranges. */
    static constexpr IpAddr kAttackerBase = 0xc6120001;   // 198.18.0.1
    static constexpr int kAttackerIps = 256;

    SynFlood(EventQueue &eq, Wire &wire, std::vector<IpAddr> targets,
             Port target_port);

    /**
     * Flood at @p syns_per_sec during [start, end). May be called once
     * per syn_flood fault window; windows schedule independently.
     */
    void addWindow(Tick start, Tick end, double syns_per_sec);

    std::uint64_t synsSent() const { return synsSent_; }

  private:
    void fire(Tick end, Tick spacing);

    EventQueue &eq_;
    Wire &wire_;
    std::vector<IpAddr> targets_;
    Port targetPort_;
    std::uint64_t synsSent_ = 0;
    std::uint64_t cursor_ = 0;   //!< rotates target/src-ip/src-port
};

} // namespace fsim

#endif // FSIM_APP_SYN_FLOOD_HH
