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
 * selectGroupRanks() runs the same select over several groups of values
 * in shared passes, for values that are costly to produce.
 *
 * selectRecords() builds on them to pick records by several keys, the
 * way tail exemplars break latency ties.
 */

#ifndef FSIM_SIM_ORDER_STAT_HH
#define FSIM_SIM_ORDER_STAT_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>

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
 * selectRanks over G groups of values at once. @p for_each(sink) must
 * call sink(g, v) once per value, g < G, with the same pairs (in any
 * order) on every call. For each group, what selectRanks returns for
 * @p ranks[g] over that group's values; a group with no values returns
 * zeros and its ranks are not read. The groups share every pass, as
 * many as the widest group's range needs. Each rank of each group adds
 * a 2^DigitBits-counter histogram to the scratch on the stack, so many
 * groups take fewer digit bits (a pass more, an eighth the scratch).
 */
template <int DigitBits = 11, typename ForEach, std::size_t G, std::size_t K>
std::array<std::array<RankedValue, K>, G>
selectGroupRanks(const ForEach &for_each,
                 const std::array<std::array<std::uint64_t, K>, G> &ranks)
{
    std::array<std::uint64_t, G> n{}, lo, hi{};
    std::array<std::uint64_t, G> atLo{}, atHi{};  // values equal to lo, hi
    lo.fill(~std::uint64_t{0});
    for_each([&](std::size_t g, std::uint64_t v) {
        ++n[g];
        if (v < lo[g]) {
            lo[g] = v;
            atLo[g] = 0;
        }
        atLo[g] += v == lo[g];
        if (v > hi[g]) {
            hi[g] = v;
            atHi[g] = 0;
        }
        atHi[g] += v == hi[g];
    });

    // Every value of a group lies in [lo, hi], so all share the bits
    // above the highest bit in which lo and hi differ, and so above the
    // highest such bit of any group, top. A rank that falls on lo or hi
    // is known now; the rest fix one digit per pass below top.
    int top = 0;
    for (std::size_t g = 0; g < G; ++g)
        if (n[g])
            top = std::max<int>(top, std::bit_width(lo[g] ^ hi[g]));
    std::array<std::array<RankedValue, K>, G> out{};
    std::array<std::array<bool, K>, G> open{};
    bool anyOpen = false;
    for (std::size_t g = 0; g < G; ++g) {
        if (n[g] == 0)
            continue;
        fsim_assert(n[g] <= 0xffff'ffff && "selectRanks: 2^32 values or more");
        for (std::size_t k = 0; k < K; ++k) {
            const std::uint64_t rank = ranks[g][k];
            fsim_assert(rank < n[g] && "selectRanks: rank past the last value");
            if (rank < atLo[g]) {
                out[g][k] = {lo[g], 0};
            } else if (rank >= n[g] - atHi[g]) {
                out[g][k] = {hi[g], n[g] - atHi[g]};
            } else {
                out[g][k] = {top == 64 ? 0 : lo[g] >> top << top, 0};
                open[g][k] = anyOpen = true;
            }
        }
    }
    if (!anyOpen)
        return out;

    std::array<std::array<std::array<std::uint32_t,
                                      std::size_t{1} << DigitBits>, K>, G>
        count;
    for (int low = top; low > 0;) {     // bits [0, low) not yet fixed
        const int width = std::min(low, DigitBits);
        const std::uint64_t fixed =
            low == 64 ? 0 : ~std::uint64_t{0} << low;
        low -= width;
        const std::uint64_t digitMask = (std::uint64_t{1} << width) - 1;
        for (auto &group : count)
            for (auto &hist : group)
                hist.fill(0);
        for_each([&](std::size_t g, std::uint64_t v) {
            for (std::size_t k = 0; k < K; ++k)
                if (open[g][k] && (v & fixed) == out[g][k].value)
                    ++count[g][k][(v >> low) & digitMask];
        });
        for (std::size_t g = 0; g < G; ++g)
            for (std::size_t k = 0; k < K; ++k) {
                if (!open[g][k])
                    continue;
                std::uint64_t d = 0;
                while (ranks[g][k] - out[g][k].below >= count[g][k][d])
                    out[g][k].below += count[g][k][d++];
                out[g][k].value |= d << low;
            }
    }
    return out;
}

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
    bool any = false;
    const auto out = selectGroupRanks(
        [&](auto &&sink) {
            for_each([&](std::uint64_t v) {
                any = true;
                sink(std::size_t{0}, v);
            });
        },
        std::array<std::array<std::uint64_t, K>, 1>{ranks});
    fsim_assert(any && "selectRanks: rank past the last value");
    return out[0];
}

/** selectRanks for one rank. */
template <typename ForEach>
RankedValue
selectRank(const ForEach &for_each, std::uint64_t rank)
{
    return selectRanks(for_each, std::array<std::uint64_t, 1>{rank})[0];
}

/**
 * For each index in @p ranks, the record a stable sort by @p key would
 * put at that index: the records in lexicographic order of their keys,
 * equal keys in visiting order. @p for_each(fn) must call fn(rec) once
 * per record, in the same order on every call, with references that
 * stay valid; @p key(rec) returns the record's keys as a
 * std::array<std::uint64_t, N>, and is called only from within fn, on
 * the record fn was just passed. Key by key, each rank selects its key
 * among the records equal on the keys before it (selectGroupRanks, one
 * group per rank); then one pass finds every pick. Nothing is copied
 * or allocated.
 */
template <typename Rec, typename ForEach, typename Key, std::size_t K>
std::array<const Rec *, K>
selectRecords(const ForEach &for_each, const Key &key,
              const std::array<std::uint64_t, K> &ranks)
{
    using Keys = decltype(key(std::declval<const Rec &>()));
    std::array<Keys, K> want{};
    // Each pick's index among the records equal on the keys so far.
    std::array<std::array<std::uint64_t, 1>, K> rank{};
    for (std::size_t k = 0; k < K; ++k)
        rank[k][0] = ranks[k];
    for (std::size_t j = 0; j < std::tuple_size_v<Keys>; ++j) {
        const auto at = selectGroupRanks(
            [&](auto &&sink) {
                for_each([&](const Rec &r) {
                    const Keys kr = key(r);
                    for (std::size_t k = 0; k < K; ++k) {
                        std::size_t i = 0;
                        while (i < j && kr[i] == want[k][i])
                            ++i;
                        if (i == j)
                            sink(k, kr[j]);
                    }
                });
            },
            rank);
        for (std::size_t k = 0; k < K; ++k) {
            want[k][j] = at[k][0].value;
            rank[k][0] -= at[k][0].below;
        }
    }
    // Each rank counts down the records equal on every key to its
    // pick; past it, it wraps and never reaches 0 again.
    std::array<const Rec *, K> out{};
    for_each([&](const Rec &r) {
        const Keys kr = key(r);
        for (std::size_t k = 0; k < K; ++k)
            if (kr == want[k] && rank[k][0]-- == 0)
                out[k] = &r;
    });
    for (const Rec *pick : out)
        fsim_assert(pick && "selectRecords: record not found");
    return out;
}

} // namespace fsim

#endif // FSIM_SIM_ORDER_STAT_HH
