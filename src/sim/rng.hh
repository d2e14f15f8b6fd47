/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Uses xoshiro256** seeded through SplitMix64. Every experiment owns its own
 * Rng so that runs are reproducible regardless of module evaluation order.
 */

#ifndef FSIM_SIM_RNG_HH
#define FSIM_SIM_RNG_HH

#include <cstdint>

namespace fsim
{

/** One SplitMix64 step: advance @p state and return its next output. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t range(std::uint64_t n);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Exponentially distributed double with the given mean. */
    double exponential(double mean);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

  private:
    std::uint64_t s_[4];
};

} // namespace fsim

#endif // FSIM_SIM_RNG_HH
