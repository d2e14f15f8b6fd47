#include "net/nic.hh"

#include "sim/logging.hh"

namespace fsim
{

namespace
{

constexpr std::uint32_t kIndirectionSize = 128;

bool
isPow2(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // anonymous namespace

Nic::Nic(const NicConfig &cfg)
    : cfg_(cfg),
      indirection_(kIndirectionSize),
      rxCount_(cfg.numQueues, 0)
{
    if (cfg_.numQueues <= 0 || cfg_.numQueues > 255)
        fsim_fatal("NIC queue count %d out of range", cfg_.numQueues);
    if (cfg_.fdirAtr && !isPow2(cfg_.atrTableSize))
        fsim_fatal("ATR table size must be a power of two");
    if (cfg_.fdirAtr && cfg_.atrSampleRate <= 0)
        fsim_fatal("ATR sample rate must be positive");

    for (std::uint32_t i = 0; i < kIndirectionSize; ++i)
        indirection_[i] = static_cast<std::uint8_t>(i % cfg_.numQueues);

    if (cfg_.fdirAtr)
        atrTable_.resize(cfg_.atrTableSize);
}

std::uint32_t
Nic::atrCapacity() const
{
    if (atrClamp_ != 0 && atrClamp_ < cfg_.atrTableSize)
        return atrClamp_;
    return cfg_.atrTableSize;
}

void
Nic::atrRebuild(std::uint32_t new_slots)
{
    std::vector<AtrEntry> old = std::move(atrTable_);
    atrTable_.assign(cfg_.atrTableSize, AtrEntry{});
    for (const AtrEntry &e : old) {
        if (!e.valid)
            continue;
        AtrEntry &slot = atrTable_[e.signature & (new_slots - 1)];
        if (slot.valid)
            ++atrEvictions_;   // collision in the shrunken index space
        slot = e;
    }
}

void
Nic::setAtrCapacityClamp(std::uint32_t entries)
{
    if (!cfg_.fdirAtr)
        return;
    if (entries != 0 && !isPow2(entries))
        fsim_fatal("ATR capacity clamp must be a power of two");
    atrClamp_ = entries;
    atrRebuild(atrCapacity());
}

int
Nic::rssQueue(const FiveTuple &t) const
{
    return indirection_[flowHash(t) % kIndirectionSize];
}

int
Nic::classifyRx(const Packet &pkt)
{
    int queue = -1;

    // Perfect filters have the highest match priority. The programmed rule
    // is RFD's: active incoming packets (source port in the well-known
    // range, i.e. replies from origin servers) are steered by the port
    // hash encoded in the destination port.
    if (cfg_.fdirPerfect && pkt.tuple.sport <= kWellKnownPortMax) {
        int q = pkt.tuple.dport & cfg_.perfectPortMask;
        if (q < cfg_.numQueues) {
            queue = q;
            ++perfectHits_;
        }
    }

    if (queue < 0 && cfg_.fdirAtr) {
        std::uint32_t h = flowHash(pkt.tuple);
        const AtrEntry &e = atrTable_[h & (atrCapacity() - 1)];
        if (e.valid && e.signature == h) {
            queue = e.queue;
            ++atrHits_;
        } else {
            ++rssFallbacks_;
        }
    }

    if (queue < 0)
        queue = rssQueue(pkt.tuple);

    ++rxCount_[queue];
    return queue;
}

void
Nic::noteTx(const Packet &pkt, int tx_queue)
{
    if (!cfg_.fdirAtr)
        return;
    // Like ixgbe's ATR: outgoing SYNs (connection setup) always try to
    // install a filter; other packets are sampled 1-in-atrSampleRate.
    ++txSampleCounter_;
    if (!pkt.has(kSyn) && txSampleCounter_ % cfg_.atrSampleRate != 0)
        return;

    // Key the entry on the tuple the *reply* will carry.
    std::uint32_t h = flowHash(pkt.tuple.reversed());
    AtrEntry &e = atrTable_[h & (atrCapacity() - 1)];
    if (e.valid && e.signature != h)
        ++atrEvictions_;
    e.valid = true;
    e.signature = h;
    e.queue = tx_queue;
    ++atrInstalls_;
}

} // namespace fsim
