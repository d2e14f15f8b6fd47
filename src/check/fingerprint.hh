/**
 * @file
 * Run fingerprinting for the determinism harness.
 *
 * A Fingerprint is a rolling 64-bit hash that components fold observable
 * run state into: the Wire folds every delivered packet (the full
 * network event sequence of a run) with mixDelivery, and the harness
 * folds the final counters of a run on top with mix. Two runs with the same seed and config must
 * produce bit-identical fingerprints — and tracing must not perturb
 * them, which pins the "observability charges no virtual cycles"
 * guarantee.
 */

#ifndef FSIM_CHECK_FINGERPRINT_HH
#define FSIM_CHECK_FINGERPRINT_HH

#include <cstdint>
#include <string>

namespace fsim
{

/** Rolling 64-bit hash: one multiply-fold step per packet delivery,
 *  FNV-1a with avalanche mixing per end-of-run word. */
class Fingerprint
{
  public:
    /** FNV-1a 64-bit offset basis. */
    static constexpr std::uint64_t kSeed = 0xcbf29ce484222325ULL;

    explicit Fingerprint(std::uint64_t seed = kSeed) : h_(seed) {}

    /** Fold one 64-bit word. */
    void
    mix(std::uint64_t v)
    {
        // FNV-1a over the 8 bytes, then a splitmix64 finalization round
        // so single-bit input changes avalanche across the whole state.
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
        std::uint64_t z = h_ + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h_ = z ^ (z >> 31);
    }

    void mix(double v);

    /**
     * Fold one packet delivery, four words, in one step. Two
     * independent 64x64->128 multiplies fold the words pairwise; one
     * more, the only one that depends on the running state, chains
     * them into it. A delivery costs three multiplies, two of them off
     * the dependency chain from one delivery to the next, where four
     * mix() calls chain 40 (eight FNV rounds and two finalizer
     * multiplies each). The keys are wyhash's secrets (odd, no zero
     * byte): xoring one in keeps a zero or small word, such as an
     * empty payload, from zeroing its multiply.
     */
    void
    mixDelivery(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                std::uint64_t w3)
    {
        const std::uint64_t a = fold(w0 ^ 0xa0761d6478bd642fULL,
                                     w1 ^ 0xe7037ed1a0b428dbULL);
        const std::uint64_t b = fold(w2 ^ 0x8ebc6af09c88c6e3ULL,
                                     w3 ^ 0x589965cc75374cc3ULL);
        h_ = fold(h_ ^ a, b ^ 0x1d8e4e27c47d124fULL);
    }

    std::uint64_t value() const { return h_; }

    /** "0x%016x" rendering (the JSON/CLI format). */
    static std::string hex(std::uint64_t v);

  private:
    /** 64x64->128 multiply, halves xor-folded back to 64 bits. */
    static std::uint64_t
    fold(std::uint64_t x, std::uint64_t y)
    {
        __extension__ using U128 = unsigned __int128;
        const U128 p = static_cast<U128>(x) * y;
        return static_cast<std::uint64_t>(p) ^
               static_cast<std::uint64_t>(p >> 64);
    }

    std::uint64_t h_;
};

} // namespace fsim

#endif // FSIM_CHECK_FINGERPRINT_HH
