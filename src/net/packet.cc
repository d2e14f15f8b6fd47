#include "net/packet.hh"

#include <cstdio>

namespace fsim
{

std::uint32_t
flowHash(const FiveTuple &t)
{
    // A mixed 64-bit key run through a finalizer; stands in for the NIC's
    // Toeplitz hash. Must be deterministic and well distributed.
    std::uint64_t key =
        (static_cast<std::uint64_t>(t.saddr) << 32) ^ t.daddr;
    key ^= (static_cast<std::uint64_t>(t.sport) << 48) ^
           (static_cast<std::uint64_t>(t.dport) << 16);
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<std::uint32_t>(key);
}

std::string
FiveTuple::str() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%u.%u:%u -> %u.%u:%u",
                  saddr >> 16, saddr & 0xffff, sport,
                  daddr >> 16, daddr & 0xffff, dport);
    return buf;
}

} // namespace fsim
