/**
 * @file
 * Ideal backend server pool.
 *
 * The paper saturates its proxy with Fastsocket-enabled backends; here the
 * backends are ideal wire endpoints (no CPU model of their own) that speak
 * just enough TCP: SYN -> SYN-ACK, request -> response carrying FIN
 * (server closes after the reply, keep-alive off), FIN -> ACK.
 */

#ifndef FSIM_APP_BACKEND_HH
#define FSIM_APP_BACKEND_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace fsim
{

/** A range of ideal backend servers attached to the wire. */
class BackendPool
{
  public:
    /**
     * @param first,last Inclusive address range served.
     * @param service_delay Ticks between request in and response out.
     */
    BackendPool(EventQueue &eq, Wire &wire, IpAddr first, IpAddr last,
                std::uint32_t response_bytes = 64,
                Tick service_delay = ticksFromUsec(100));

    std::uint64_t requestsServed() const { return served_; }

    /**
     * Keep-alive mode: responses no longer carry FIN, so the proxy side
     * becomes the active closer of every backend connection — the
     * configuration where its ephemeral ports linger in TIME_WAIT.
     */
    void setKeepAlive(bool ka) { keepAlive_ = ka; }
    /** Packets swallowed by outage windows. */
    std::uint64_t outageDrops() const { return outageDrops_; }

    /** First backend address; fault targets index from it. */
    IpAddr firstAddr() const { return first_; }

    /** @name Fault injection */
    /** @{ */
    /**
     * Backend @p target (index from firstAddr; -1 = every backend) drops
     * all packets during [start, end) — a crash with recovery at @p end.
     */
    void addOutage(int target, Tick start, Tick end);
    /** Same targeting, but service delay is multiplied by @p factor. */
    void addSlowdown(int target, Tick start, Tick end, double factor);
    /** @} */

  private:
    struct FaultWindow
    {
        int target;         //!< backend index, -1 = all
        Tick start;
        Tick end;
        bool down;          //!< outage vs slowdown
        double factor;      //!< slowdown multiplier
    };

    void onPacket(const Packet &pkt);

    EventQueue &eq_;
    Wire &wire_;
    IpAddr first_;
    std::uint32_t responseBytes_;
    Tick serviceDelay_;
    bool keepAlive_ = false;
    std::vector<FaultWindow> faults_;
    std::uint64_t served_ = 0;
    std::uint64_t outageDrops_ = 0;
};

} // namespace fsim

#endif // FSIM_APP_BACKEND_HH
