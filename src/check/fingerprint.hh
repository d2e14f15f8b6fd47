/**
 * @file
 * Run fingerprinting for the determinism harness.
 *
 * A Fingerprint is a rolling 64-bit hash that components fold observable
 * run state into: the Wire folds every delivered packet (the full
 * network event sequence of a run), and the harness folds the final
 * counters of a run on top. Two runs with the same seed and config must
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

/** Rolling FNV-1a-style 64-bit hash with avalanche mixing. */
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

    std::uint64_t value() const { return h_; }

    /** "0x%016x" rendering (the JSON/CLI format). */
    static std::string hex(std::uint64_t v);

  private:
    std::uint64_t h_;
};

} // namespace fsim

#endif // FSIM_CHECK_FINGERPRINT_HH
