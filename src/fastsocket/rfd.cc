#include "fastsocket/rfd.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fsim
{

namespace
{

std::uint32_t
roundUpPow2(std::uint32_t x)
{
    std::uint32_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

} // anonymous namespace

ReceiveFlowDeliver::ReceiveFlowDeliver(int n_cores, bool precise)
    : nCores_(n_cores), precise_(precise)
{
    fsim_assert(n_cores >= 1 && n_cores <= 64);
    std::uint32_t width = roundUpPow2(static_cast<std::uint32_t>(n_cores));
    for (int b = 0; (1u << b) < width; ++b)
        bits_.push_back(b);
}

Port
ReceiveFlowDeliver::hashMask(int n_cores)
{
    return static_cast<Port>(
        roundUpPow2(static_cast<std::uint32_t>(n_cores)) - 1);
}

CoreId
ReceiveFlowDeliver::hash(Port p) const
{
    std::uint32_t h = 0;
    for (std::size_t i = 0; i < bits_.size(); ++i)
        h |= ((static_cast<std::uint32_t>(p) >> bits_[i]) & 1u) << i;
    return static_cast<CoreId>(h);
}

PacketClass
ReceiveFlowDeliver::classify(
    const Packet &pkt,
    const std::function<bool(IpAddr, Port)> &has_listener) const
{
    // Rule 1: a well-known *source* port means the packet is a reply from
    // a server we connected to — the kernel never picks a well-known port
    // as an ephemeral source port.
    if (pkt.tuple.sport <= kWellKnownPortMax)
        return PacketClass::kActiveIncoming;

    // Rule 2: a well-known *destination* port means it targets one of our
    // services: passive.
    if (pkt.tuple.dport <= kWellKnownPortMax)
        return PacketClass::kPassiveIncoming;

    // Rule 3 (optional precise mode): a destination port somebody listens
    // on cannot have been used as an active source port.
    if (precise_ && has_listener &&
        has_listener(pkt.tuple.daddr, pkt.tuple.dport))
        return PacketClass::kPassiveIncoming;

    return PacketClass::kActiveIncoming;
}

CoreId
ReceiveFlowDeliver::steerTarget(const Packet &pkt, PacketClass cls) const
{
    if (cls != PacketClass::kActiveIncoming)
        return kInvalidCore;
    CoreId c = hash(pkt.tuple.dport);
    // Ports we allocated always hash below nCores_; foreign traffic is
    // wrapped defensively.
    return c < nCores_ ? c : c % nCores_;
}

void
ReceiveFlowDeliver::randomizeBits(Rng &rng)
{
    std::size_t width = bits_.size();
    std::vector<int> pool;
    for (int b = 0; b < 16; ++b)
        pool.push_back(b);
    // Fisher-Yates draw of `width` distinct bit positions.
    for (std::size_t i = 0; i < width; ++i) {
        std::size_t j = i + rng.range(pool.size() - i);
        std::swap(pool[i], pool[j]);
    }
    bits_.assign(pool.begin(), pool.begin() + width);
    std::sort(bits_.begin(), bits_.end());
}

Port
ReceiveFlowDeliver::portCandidate(CoreId core, std::uint32_t idx) const
{
    fsim_assert(core >= 0 &&
                static_cast<std::uint32_t>(core) < (1u << bits_.size()));
    fsim_assert(idx < candidateCount());

    std::uint32_t port = 0;
    // Scatter the core id into the hash bits.
    for (std::size_t i = 0; i < bits_.size(); ++i)
        port |= ((static_cast<std::uint32_t>(core) >> i) & 1u) << bits_[i];
    // Scatter idx into the remaining bits, LSB-first.
    std::uint32_t k = 0;
    for (int b = 0; b < 16; ++b) {
        if (std::find(bits_.begin(), bits_.end(), b) != bits_.end())
            continue;
        port |= ((idx >> k) & 1u) << b;
        ++k;
    }
    return static_cast<Port>(port);
}

std::uint32_t
ReceiveFlowDeliver::candidateCount() const
{
    return 1u << (16 - bits_.size());
}

} // namespace fsim
