#include "tcp/socket.hh"

#include <bit>
#include <iterator>

namespace fsim
{

const char *
tcpStateName(TcpState s)
{
    // Indexed by TcpState, in declaration order.
    static constexpr const char *kNames[] = {
        "CLOSED",      "LISTEN",    "SYN_SENT",  "SYN_RCVD",
        "ESTABLISHED", "FIN_WAIT1", "FIN_WAIT2", "CLOSE_WAIT",
        "LAST_ACK",    "TIME_WAIT",
    };
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(TcpState::kTimeWait) + 1);
    return kNames[static_cast<std::size_t>(s)];
}

int
Socket::touchedCount() const
{
    return std::popcount(coresTouched);
}

} // namespace fsim
