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
