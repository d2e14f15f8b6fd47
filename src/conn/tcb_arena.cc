#include "conn/tcb_arena.hh"

#include <new>

#include "sim/logging.hh"

namespace fsim
{

TcbArena::~TcbArena()
{
    // Destroy any socket the kernel leaked (tests assert live() == 0
    // where it matters; the arena itself must still not leak dtors).
    for (auto &slab : slabs_) {
        for (std::size_t w = 0; w < kWordsPerSlab; ++w) {
            std::uint64_t bits = slab->liveBits[w];
            while (bits) {
                unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
                bits &= bits - 1;
                slab->at(w * 64 + bit)->~Socket();
            }
        }
    }
}

Socket *
TcbArena::create()
{
    if (freelist_.empty()) {
        // Default-initialised: the socket storage stays raw (sockets
        // are placement-new'd into it); liveBits has its initialiser.
        auto slab = std::make_unique_for_overwrite<Slab>();
        std::size_t base = slabs_.size() * kSlabSize;
        // Push in reverse so the LIFO freelist hands out slot 0 first.
        freelist_.reserve(freelist_.size() + kSlabSize);
        for (std::size_t i = kSlabSize; i-- > 0;)
            freelist_.push_back(static_cast<std::uint32_t>(base + i));
        slabs_.push_back(std::move(slab));
    }
    std::uint32_t slot = freelist_.back();
    freelist_.pop_back();
    Slab &slab = *slabs_[slot / kSlabSize];
    std::size_t in_slab = slot % kSlabSize;
    fsim_assert((slab.liveBits[in_slab / 64] &
                 (1ull << (in_slab % 64))) == 0);
    Socket *sock = new (slab.at(in_slab)) Socket();
    sock->arenaSlot = slot;
    slab.liveBits[in_slab / 64] |= 1ull << (in_slab % 64);
    ++live_;
    ++created_;
    if (live_ > peakLive_)
        peakLive_ = live_;
    return sock;
}

void
TcbArena::destroy(Socket *sock)
{
    fsim_assert(sock && sock->arenaSlot != Socket::kNoArenaSlot);
    std::uint32_t slot = sock->arenaSlot;
    fsim_assert(slot / kSlabSize < slabs_.size());
    Slab &slab = *slabs_[slot / kSlabSize];
    std::size_t in_slab = slot % kSlabSize;
    fsim_assert(slab.at(in_slab) == sock);
    fsim_assert(slab.liveBits[in_slab / 64] & (1ull << (in_slab % 64)));
    slab.liveBits[in_slab / 64] &= ~(1ull << (in_slab % 64));
    sock->~Socket();
    freelist_.push_back(slot);
    fsim_assert(live_ > 0);
    --live_;
}

} // namespace fsim
