#include "app/backend.hh"

namespace fsim
{

BackendPool::BackendPool(EventQueue &eq, Wire &wire, IpAddr first,
                         IpAddr last, std::uint32_t response_bytes,
                         Tick service_delay)
    : eq_(eq), wire_(wire), first_(first),
      responseBytes_(response_bytes), serviceDelay_(service_delay)
{
    wire_.attachRange(first_, last,
                      [this](const Packet &pkt) { onPacket(pkt); });
}

void
BackendPool::addOutage(int target, Tick start, Tick end)
{
    faults_.push_back(FaultWindow{target, start, end, true, 1.0});
}

void
BackendPool::addSlowdown(int target, Tick start, Tick end, double factor)
{
    faults_.push_back(FaultWindow{target, start, end, false, factor});
}

void
BackendPool::onPacket(const Packet &pkt)
{
    // A packet addressed to a backend in an outage window vanishes (the
    // crashed host answers nothing, not even RST). Slowdown windows
    // stretch the service delay instead.
    const int index = static_cast<int>(pkt.tuple.daddr - first_);
    const Tick now = eq_.now();
    double slow = 1.0;
    for (const FaultWindow &w : faults_) {
        if (w.target != -1 && w.target != index)
            continue;
        if (now < w.start || now >= w.end)
            continue;
        if (w.down) {
            ++outageDrops_;
            return;
        }
        if (w.factor > slow)
            slow = w.factor;
    }
    const Tick service =
        static_cast<Tick>(static_cast<double>(serviceDelay_) * slow);

    Packet reply;
    reply.tuple = pkt.tuple.reversed();
    reply.connId = pkt.connId;

    if (pkt.has(kSyn) && !pkt.has(kAck)) {
        reply.flags = kSyn | kAck;
        wire_.transmit(reply, eq_.now());
        return;
    }
    if (pkt.payload > 0) {
        // Serve the request; without keep-alive, FIN rides on the
        // response (server closes after replying). With keep-alive the
        // connection stays open until the peer hangs up.
        reply.flags = kAck | kPsh;
        if (!keepAlive_)
            reply.flags |= kFin;
        reply.payload = responseBytes_;
        ++served_;
        wire_.transmit(reply, eq_.now() + service);
        return;
    }
    if (pkt.has(kFin)) {
        // ACK the peer's FIN; a kept-alive backend also closes its own
        // half now, so the active closer can reach TIME_WAIT.
        reply.flags = kAck;
        if (keepAlive_)
            reply.flags |= kFin;
        wire_.transmit(reply, eq_.now());
        return;
    }
    // Bare ACKs need no reply.
}

} // namespace fsim
