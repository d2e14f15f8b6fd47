#include "check/fingerprint.hh"

#include <cstdio>
#include <cstring>

namespace fsim
{

void
Fingerprint::mix(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

std::string
Fingerprint::hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace fsim
