/**
 * @file
 * Exact order statistics over values read in place.
 *
 * selectRanks() returns the values a full sort would put at given
 * indexes without copying the values: a radix select that reads them
 * again on every pass. The first pass finds their range. Each later
 * pass histograms the next 11-bit digit of the values that share the
 * digits fixed so far, and fixes the digit that holds each wanted rank.
 * Passes start at the highest bit in which the values differ, so
 * latencies spanning 2^22 ticks take three passes in all, however many
 * ranks are asked for. The scratch is one 2048-counter histogram per
 * rank, on the stack, however many values there are.
 */

#ifndef FSIM_SIM_ORDER_STAT_HH
#define FSIM_SIM_ORDER_STAT_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sim/logging.hh"

namespace fsim
{

/** A selected value and how many of the values are smaller than it. */
struct RankedValue
{
    std::uint64_t value = 0;
    std::uint64_t below = 0;

    bool operator==(const RankedValue &) const = default;
};

/**
 * For each index in @p ranks (from 0), the value at that index of the
 * values in sorted order, and how many values are smaller, so
 * rank - below is its index among its equals. @p for_each(sink) must
 * call sink(v) once per value, with the same values (in any order) on
 * every call. There must be more values than the largest rank, and
 * fewer than 2^32. The ranks share every pass; each adds a 2048-counter
 * histogram (8 KiB) to the scratch on the stack.
 */
template <typename ForEach, std::size_t K>
std::array<RankedValue, K>
selectRanks(const ForEach &for_each, const std::array<std::uint64_t, K> &ranks)
{
    constexpr int kDigitBits = 11;
    std::uint64_t n = 0;
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    std::uint64_t atLo = 0;     // values equal to lo
    std::uint64_t atHi = 0;     // values equal to hi
    for_each([&](std::uint64_t v) {
        ++n;
        if (v < lo) {
            lo = v;
            atLo = 0;
        }
        atLo += v == lo;
        if (v > hi) {
            hi = v;
            atHi = 0;
        }
        atHi += v == hi;
    });
    fsim_assert(n <= 0xffff'ffff && "selectRanks: 2^32 values or more");

    // Every value lies in [lo, hi], so all share the bits above the
    // highest bit in which lo and hi differ. A rank that falls on lo or
    // hi is known now; the rest fix one digit per pass below that bit.
    const int top = std::bit_width(lo ^ hi);
    std::array<RankedValue, K> out;
    std::array<bool, K> open{};
    for (std::size_t k = 0; k < K; ++k) {
        fsim_assert(ranks[k] < n && "selectRanks: rank past the last value");
        if (ranks[k] < atLo) {
            out[k] = {lo, 0};
        } else if (ranks[k] >= n - atHi) {
            out[k] = {hi, n - atHi};
        } else {
            out[k] = {top == 64 ? 0 : lo >> top << top, 0};
            open[k] = true;
        }
    }
    if (std::find(open.begin(), open.end(), true) == open.end())
        return out;

    std::array<std::array<std::uint32_t, std::size_t{1} << kDigitBits>, K>
        count;
    for (int low = top; low > 0;) {     // bits [0, low) not yet fixed
        const int width = std::min(low, kDigitBits);
        const std::uint64_t fixed =
            low == 64 ? 0 : ~std::uint64_t{0} << low;
        low -= width;
        const std::uint64_t digitMask = (std::uint64_t{1} << width) - 1;
        for (std::size_t k = 0; k < K; ++k)
            count[k].fill(0);
        for_each([&](std::uint64_t v) {
            for (std::size_t k = 0; k < K; ++k)
                if (open[k] && (v & fixed) == out[k].value)
                    ++count[k][(v >> low) & digitMask];
        });
        for (std::size_t k = 0; k < K; ++k) {
            if (!open[k])
                continue;
            std::uint64_t d = 0;
            while (ranks[k] - out[k].below >= count[k][d])
                out[k].below += count[k][d++];
            out[k].value |= d << low;
        }
    }
    return out;
}

/** selectRanks for one rank. */
template <typename ForEach>
RankedValue
selectRank(const ForEach &for_each, std::uint64_t rank)
{
    return selectRanks(for_each, std::array<std::uint64_t, 1>{rank})[0];
}

} // namespace fsim

#endif // FSIM_SIM_ORDER_STAT_HH
