#include "net/wire.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace fsim
{

Wire::Wire(EventQueue &eq, Tick one_way_delay)
    : eq_(eq), delay_(one_way_delay)
{
}

void
Wire::attach(IpAddr addr, Endpoint handler)
{
    *endpoints_.insert(addr, Endpoint{}).first = std::move(handler);
}

void
Wire::attachRange(IpAddr first, IpAddr last, Endpoint handler)
{
    fsim_assert(first <= last);
    ranges_.push_back(Range{first, last, std::move(handler)});
}

const Wire::Endpoint *
Wire::lookup(IpAddr addr) const
{
    if (const Endpoint *ep = endpoints_.find(addr))
        return ep;
    for (const Range &r : ranges_) {
        if (addr >= r.first && addr <= r.last)
            return &r.handler;
    }
    return nullptr;
}

void
Wire::addLink(const LinkSpec &spec)
{
    fsim_assert(spec.aFirst <= spec.aLast);
    fsim_assert(spec.bFirst <= spec.bLast);
    fsim_assert(spec.gbps > 0.0);
    Link l;
    l.spec = spec;
    // Integer serialization cost so same-seed runs are bit-identical:
    // ticks to put 1024 wire bytes on a gbps-rate line.
    l.ticksPer1024B = static_cast<Tick>(std::llround(
        static_cast<double>(ticksFromSeconds(1.0)) * 1024.0 * 8.0 /
        (spec.gbps * 1e9)));
    if (l.ticksPer1024B < 1)
        l.ticksPer1024B = 1;
    links_.push_back(l);
}

namespace
{

bool
inRange(IpAddr a, IpAddr first, IpAddr last)
{
    return a >= first && a <= last;
}

} // anonymous namespace

Tick
Wire::linkDelay(const Packet &pkt, Tick when)
{
    for (Link &l : links_) {
        int dir;
        if (inRange(pkt.tuple.saddr, l.spec.aFirst, l.spec.aLast) &&
            inRange(pkt.tuple.daddr, l.spec.bFirst, l.spec.bLast)) {
            dir = 0;
        } else if (inRange(pkt.tuple.saddr, l.spec.bFirst, l.spec.bLast) &&
                   inRange(pkt.tuple.daddr, l.spec.aFirst, l.spec.aLast)) {
            dir = 1;
        } else {
            continue;
        }
        // Payload plus Ethernet/IP/TCP framing; ceil over 1 KiB quanta.
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(pkt.payload) + 64;
        const Tick ser = static_cast<Tick>(
            (bytes * static_cast<std::uint64_t>(l.ticksPer1024B) + 1023) /
            1024);
        const Tick depart = std::max(when, l.busyUntil[dir]);
        linkQueuedTicks_ += depart - when;
        l.busyUntil[dir] = depart + ser;
        ++linkPackets_;
        return (depart - when) + ser + l.spec.latency;
    }
    return delay_;
}

void
Wire::setLossRate(double rate, std::uint64_t seed)
{
    fsim_assert(rate >= 0.0 && rate < 1.0);
    lossRate_ = rate;
    lossRng_ = Rng(seed);
}

void
Wire::addFaultWindow(const FaultWindow &w)
{
    fsim_assert(w.start < w.end);
    fsim_assert(w.lossRate >= 0.0 && w.lossRate < 1.0);
    fsim_assert(w.reorderRate >= 0.0 && w.reorderRate < 1.0);
    fsim_assert(w.dupRate >= 0.0 && w.dupRate < 1.0);
    faultWindows_.push_back(w);
}

void
Wire::addPartition(const PartitionSpec &p)
{
    fsim_assert(p.aFirst <= p.aLast);
    fsim_assert(p.bFirst <= p.bLast);
    fsim_assert(p.start < p.end);
    partitions_.push_back(p);
}

std::uint64_t
Wire::faultHash(const Packet &pkt, std::uint64_t salt) const
{
    // splitmix64 over packet identity. Deliberately excludes time so the
    // fate of a packet is invariant to when the sending kernel got around
    // to transmitting it.
    std::uint64_t x = faultSeed_ ^ (salt * 0x9e3779b97f4a7c15ULL);
    x ^= (static_cast<std::uint64_t>(pkt.tuple.saddr) << 32) |
         pkt.tuple.daddr;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= (static_cast<std::uint64_t>(pkt.tuple.sport) << 48) |
         (static_cast<std::uint64_t>(pkt.tuple.dport) << 32) |
         (static_cast<std::uint64_t>(pkt.flags) << 24) | pkt.txSeq;
    x *= 0x94d049bb133111ebULL;
    x ^= static_cast<std::uint64_t>(pkt.payload);
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

bool
Wire::faultChance(const Packet &pkt, std::uint64_t salt, double rate) const
{
    if (rate <= 0.0)
        return false;
    // Top 53 bits -> uniform double in [0, 1).
    double u = static_cast<double>(faultHash(pkt, salt) >> 11) *
               (1.0 / 9007199254740992.0);
    return u < rate;
}

void
Wire::deliverAt(const Packet &pkt, Tick when)
{
    ++inFlight_;
    // Copying the handler pointer is unsafe if maps rehash; copy the
    // target address and re-resolve at delivery time instead.
    eq_.schedule(when, [this, pkt] {
        --inFlight_;
        const Endpoint *handler = lookup(pkt.tuple.daddr);
        if (!handler) {
            ++dropped_;
            return;
        }
        ++delivered_;
        seqHash_.mix(eq_.now());
        seqHash_.mix((static_cast<std::uint64_t>(pkt.tuple.saddr) << 32) |
                     pkt.tuple.daddr);
        seqHash_.mix((static_cast<std::uint64_t>(pkt.tuple.sport) << 48) |
                     (static_cast<std::uint64_t>(pkt.tuple.dport) << 32) |
                     (static_cast<std::uint64_t>(pkt.flags) << 24));
        seqHash_.mix(static_cast<std::uint64_t>(pkt.payload));
        (*handler)(pkt);
    });
}

void
Wire::transmit(const Packet &pkt, Tick when)
{
    ++transmitted_;
    const Endpoint *ep = lookup(pkt.tuple.daddr);
    if (!ep) {
        ++dropped_;
        return;
    }
    if (lossRate_ > 0.0 && lossRng_.chance(lossRate_)) {
        ++lost_;
        return;
    }
    for (const PartitionSpec &p : partitions_) {
        if (when < p.start || when >= p.end)
            continue;
        const bool ab = inRange(pkt.tuple.saddr, p.aFirst, p.aLast) &&
                        inRange(pkt.tuple.daddr, p.bFirst, p.bLast);
        const bool ba = inRange(pkt.tuple.saddr, p.bFirst, p.bLast) &&
                        inRange(pkt.tuple.daddr, p.aFirst, p.aLast);
        if (ab || ba) {
            ++lost_;
            ++partitionDropped_;
            return;
        }
    }
    // Combine all fault windows covering the transmit tick. Rates combine
    // via max so overlapping windows stay within [0, 1).
    double loss = 0.0, reorder = 0.0, dup = 0.0;
    Tick jitter = 0;
    for (const FaultWindow &w : faultWindows_) {
        if (when < w.start || when >= w.end)
            continue;
        if (w.lossRate > loss)
            loss = w.lossRate;
        if (w.reorderRate > reorder) {
            reorder = w.reorderRate;
            jitter = w.reorderJitter;
        }
        if (w.dupRate > dup)
            dup = w.dupRate;
    }
    if (faultChance(pkt, 0x1055, loss)) {
        ++lost_;
        return;
    }
    Tick extra = 0;
    if (faultChance(pkt, 0x4e04de4, reorder) && jitter > 0)
        extra = 1 + static_cast<Tick>(faultHash(pkt, 0x1177e4) %
                                      static_cast<std::uint64_t>(jitter));
    // One link-horizon charge per packet even when duplicated: the dup
    // is a fault artifact, not a second serialization.
    const Tick path = links_.empty() ? delay_ : linkDelay(pkt, when);
    deliverAt(pkt, when + path + extra);
    if (faultChance(pkt, 0xd0bbe1, dup)) {
        ++duplicated_;
        deliverAt(pkt, when + path + extra + 1);
    }
}

} // namespace fsim
