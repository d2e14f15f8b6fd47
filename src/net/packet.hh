/**
 * @file
 * Packet and flow-identity types.
 *
 * Only the header fields that steering and TCP state transitions depend on
 * are modeled; payload is a byte count. The protocol is always TCP.
 */

#ifndef FSIM_NET_PACKET_HH
#define FSIM_NET_PACKET_HH

#include <cstdint>
#include <string>

namespace fsim
{

/** IPv4 address in host order. */
using IpAddr = std::uint32_t;
/** TCP port. */
using Port = std::uint16_t;

/** Last port of the well-known range (paper's RFD rule 1/2 boundary). */
constexpr Port kWellKnownPortMax = 1023;

/** TCP header flags. */
enum TcpFlag : std::uint8_t
{
    kSyn = 1 << 0,
    kAck = 1 << 1,
    kFin = 1 << 2,
    kRst = 1 << 3,
    kPsh = 1 << 4,
    /** "Connection: close" request-header analog carried on a data
     *  segment: the client tells a keep-alive server this is the flow's
     *  last request, so the server takes the active-close (TIME_WAIT)
     *  path after responding. Lets one server serve a mix of short- and
     *  long-lived connections. */
    kConnClose = 1 << 5,
};

/** Connection 4-tuple (TCP implied) as seen in a packet header. */
struct FiveTuple
{
    IpAddr saddr = 0;
    IpAddr daddr = 0;
    Port sport = 0;
    Port dport = 0;

    bool
    operator==(const FiveTuple &o) const
    {
        return saddr == o.saddr && daddr == o.daddr &&
               sport == o.sport && dport == o.dport;
    }

    /** The same flow seen from the other endpoint. */
    FiveTuple
    reversed() const
    {
        return FiveTuple{daddr, saddr, dport, sport};
    }

    std::string str() const;
};

/** Stateless 32-bit flow hash (Toeplitz stand-in) used by RSS and tables. */
std::uint32_t flowHash(const FiveTuple &t);

/** One TCP/IP packet on the simulated network. */
struct Packet
{
    FiveTuple tuple;
    std::uint8_t flags = 0;
    std::uint32_t payload = 0;   //!< TCP payload bytes
    std::uint64_t connId = 0;    //!< debugging / endpoint matching aid
    std::uint32_t cookie = 0;    //!< SYN-cookie echo (0 = none)
    std::uint32_t txSeq = 0;     //!< per-connection transmit ordinal
    /** Priority mark (the DSCP/SO_PRIORITY analog): health/control
     *  flows set it on every packet so overload defenses that drop at
     *  ingress — before any per-connection state exists — can still
     *  spare them. Not part of the payload; wire-fault content hashes
     *  ignore it. */
    bool prio = false;
    /** Distributed trace context (0 = none): stamped by the client on
     *  every packet of a request, carried across the balancer's NAT
     *  rewrite and inherited by server TCBs, so LB-side and
     *  machine-side spans stitch into one end-to-end trace. Like prio
     *  and connId, it is metadata: wire-fault content hashes and the
     *  delivery-sequence fingerprint both ignore it, so tracing can
     *  never change a packet's fate. */
    std::uint64_t traceId = 0;

    bool has(TcpFlag f) const { return flags & f; }
};

} // namespace fsim

#endif // FSIM_NET_PACKET_HH
