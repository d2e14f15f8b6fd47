#include "tcp/port_alloc.hh"

#include "sim/logging.hh"

namespace fsim
{

PortAllocator::PortAllocator(Port lo, Port hi)
    : lo_(lo), hi_(hi), hint_(lo)
{
    fsim_assert(lo_ > 0 && lo_ < hi_);
}

PortAllocator::PortSet &
PortAllocator::setFor(std::uint64_t key)
{
    PortSet &set = used_[key];
    if (set.bits.empty())
        set.bits.resize(PortSet::kWords, 0);
    return set;
}

Port
PortAllocator::alloc(IpAddr dst, Port dport)
{
    PortSet &set = setFor(dkey(dst, dport));
    const std::uint32_t span = hi_ - lo_ + 1u;
    Port p = hint_;
    for (std::uint32_t i = 0; i < span; ++i) {
        if (!set.test(p)) {
            set.set(p);
            ++total_;
            hint_ = p == hi_ ? lo_ : static_cast<Port>(p + 1);
            return p;
        }
        p = p == hi_ ? lo_ : static_cast<Port>(p + 1);
    }
    return 0;
}

Port
PortAllocator::allocForCore(IpAddr dst, Port dport, CoreId core, Port mask)
{
    fsim_assert(core >= 0 && static_cast<Port>(core) <= mask);
    fsim_assert(((static_cast<std::uint32_t>(mask) + 1) &
                 static_cast<std::uint32_t>(mask)) == 0);

    PortSet &set = setFor(dkey(dst, dport));
    const std::uint32_t stride = static_cast<std::uint32_t>(mask) + 1;

    // First candidate >= lo_ with (p & mask) == core.
    std::uint32_t first = (lo_ & ~static_cast<std::uint32_t>(mask)) +
                          static_cast<std::uint32_t>(core);
    if (first < lo_)
        first += stride;

    std::uint64_t hkey = (dkey(dst, dport) << 6) | static_cast<unsigned>(core);
    auto hintIt = coreHints_.find(hkey);
    std::uint32_t start = hintIt != coreHints_.end() ? hintIt->second : first;
    if (start < first || start > hi_)
        start = first;

    // Scan candidates cyclically within [first, hi_].
    std::uint32_t p = start;
    bool wrapped = false;
    while (true) {
        if (p > hi_) {
            if (wrapped)
                return 0;
            wrapped = true;
            p = first;
            continue;
        }
        if (!set.test(static_cast<Port>(p))) {
            set.set(static_cast<Port>(p));
            ++total_;
            coreHints_[hkey] = static_cast<Port>(
                p + stride > hi_ ? first : p + stride);
            return static_cast<Port>(p);
        }
        if (wrapped && p >= start)
            return 0;
        p += stride;
    }
}

bool
PortAllocator::claim(IpAddr dst, Port dport, Port p)
{
    PortSet &set = setFor(dkey(dst, dport));
    if (set.test(p))
        return false;
    set.set(p);
    ++total_;
    return true;
}

bool
PortAllocator::release(IpAddr dst, Port dport, Port p)
{
    auto it = used_.find(dkey(dst, dport));
    if (it == used_.end() || !it->second.test(p))
        return false;
    it->second.clear(p);
    --total_;
    return true;
}

bool
PortAllocator::inUse(IpAddr dst, Port dport, Port p) const
{
    auto it = used_.find(dkey(dst, dport));
    return it != used_.end() && it->second.test(p);
}

} // namespace fsim
