/**
 * @file
 * Host-speed probe for normalising wall-clock measurements.
 *
 * The benchmark's host is shared: the same binary and seed can run 40%
 * slower minutes later, and CPU time swings with wall time, so neither
 * is a stable measure of the simulator's own cost. The probe is a fixed
 * amount of work of the kind the simulator does (dependent loads over a
 * working set past the per-core L2, plus integer mixing); its time
 * tracks how fast the host is running right now. A timed segment is
 * reported as raw x sqrt(probe_ref / probe_now), where probe_now is
 * measured just before and just after the segment and probe_ref is
 * kRefSeconds (see normaliser()).
 */

#ifndef FSIM_BENCH_E2E_HOST_PROBE_HH
#define FSIM_BENCH_E2E_HOST_PROBE_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace fsim
{

class HostProbe
{
  public:
    /** 2M slots x 4 bytes = 8 MiB. */
    static constexpr std::uint32_t kSlots = 1u << 21;
    /** Steps of the default probe (about 0.1 s on the reference host;
     *  five probes run per process). */
    static constexpr std::uint64_t kSteps = 3'000'000;
    /** probe_ref: seconds the default probe takes on the reference host,
     *  a 4-vCPU Intel Xeon VM with 300 MiB L3. Normalised host times
     *  read as reference-host seconds. */
    static constexpr double kRefSeconds = 0.13;

    explicit HostProbe(std::uint64_t steps) : steps_(steps)
    {
        // Sattolo's shuffle: one cycle through every slot, so the walk
        // never settles into a short, cache-resident loop.
        next_.resize(kSlots);
        for (std::uint32_t i = 0; i < kSlots; ++i)
            next_[i] = i;
        std::uint64_t s = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = kSlots - 1; i > 0; --i) {
            s = mix(s);
            const auto j = static_cast<std::uint32_t>(s % i);
            std::swap(next_[i], next_[j]);
        }
        run();   // untimed: the first walk after start-up reads slow
    }

    /** Walk the fixed number of steps; @return wall seconds taken. */
    double
    run()
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint32_t i = 0;
        std::uint64_t h = sink_;
        for (std::uint64_t n = 0; n < steps_; ++n) {
            i = next_[i];
            h = mix(h ^ i);
        }
        const auto t1 = std::chrono::steady_clock::now();
        sink_ = h;
        return std::chrono::duration<double>(t1 - t0).count();
    }

    /** probe_ref scaled to this probe's number of steps. */
    double
    refSeconds() const
    {
        return kRefSeconds * static_cast<double>(steps_) /
               static_cast<double>(kSteps);
    }

    /**
     * Factor for a host time measured while the probe took @p probeNow
     * seconds: sqrt(probe_ref / probe_now). Not the full ratio, because
     * when the shared host is heavily loaded the probe slows more than
     * the simulator does (the probe took 2.7x its reference while the
     * simulator's window took 1.5x), and a full correction then reads
     * loaded runs as fast. Of the exponents 0, 0.25, 0.5, 0.75 and 1,
     * the square root had the smallest worst case over four ten-seed
     * studies and a two-set run, quiet and loaded (README.md).
     */
    double
    normaliser(double probeNow) const
    {
        return std::sqrt(refSeconds() / probeNow);
    }

    /** Result of the walks; printing it keeps the loop from being
     *  optimised away. */
    std::uint64_t sink() const { return sink_; }

  private:
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    std::vector<std::uint32_t> next_;
    std::uint64_t steps_;
    std::uint64_t sink_ = 0;
};

} // namespace fsim

#endif // FSIM_BENCH_E2E_HOST_PROBE_HH
