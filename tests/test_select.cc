/**
 * @file
 * selectRank, selectRanks and selectGroupRanks against std::nth_element,
 * selectRecords against std::stable_sort.
 *
 * The selector replaces copy-and-nth_element in two places, each with
 * its own rank rule: HttpLoad's window percentiles pick index
 * p * (n - 1) + 0.5, fleet forensics index q * (n - 1). On every input
 * here both rules must pick what nth_element over a sorted copy picks,
 * and the count of smaller values must match the copy too. selectRecords,
 * the exemplar pick built on them, must pick what a stable sort by its
 * keys puts at each rank.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/order_stat.hh"
#include "sim/rng.hh"

namespace fsim
{
namespace
{

/** What selectRank must return for index @p k of @p v. */
RankedValue
reference(std::vector<std::uint64_t> v, std::uint64_t k)
{
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    const std::uint64_t value = v[k];
    const auto below = std::count_if(
        v.begin(), v.end(), [value](std::uint64_t x) { return x < value; });
    return {value, static_cast<std::uint64_t>(below)};
}

/** A for_each over @p v. */
auto
visit(const std::vector<std::uint64_t> &v)
{
    return [&v](auto &&sink) {
        for (std::uint64_t x : v)
            sink(x);
    };
}

RankedValue
select(const std::vector<std::uint64_t> &v, std::uint64_t k)
{
    return selectRank(visit(v), k);
}

/** The ranks the two callers ask for, plus both ends. */
std::vector<std::uint64_t>
callerRanks(std::size_t n)
{
    std::vector<std::uint64_t> ranks;
    if (n == 0)
        return ranks;
    const double top = static_cast<double>(n - 1);
    for (double p : {0.0, 0.5, 0.99, 0.9999, 1.0})
        ranks.push_back(static_cast<std::uint64_t>(p * top + 0.5));
    for (double q : {0.50, 0.99, 0.999})
        ranks.push_back(static_cast<std::uint64_t>(q * top));
    ranks.push_back(0);
    ranks.push_back(n - 1);
    return ranks;
}

void
expectMatchesNthElement(const std::vector<std::uint64_t> &v,
                        const char *what)
{
    for (std::uint64_t k : callerRanks(v.size()))
        ASSERT_EQ(select(v, k), reference(v, k))
            << what << ": rank " << k << " of " << v.size();
    // The batch forensics asks for: three percentiles and the maximum,
    // selected in shared passes.
    if (v.empty())
        return;
    const double top = static_cast<double>(v.size() - 1);
    const std::array<std::uint64_t, 4> batch = {
        static_cast<std::uint64_t>(0.50 * top),
        static_cast<std::uint64_t>(0.99 * top),
        static_cast<std::uint64_t>(0.999 * top), v.size() - 1};
    const std::array<RankedValue, 4> got = selectRanks(visit(v), batch);
    for (std::size_t k = 0; k < batch.size(); ++k)
        ASSERT_EQ(got[k], reference(v, batch[k]))
            << what << ": batch rank " << batch[k] << " of " << v.size();
}

TEST(Select, RandomInputsMatchNthElement)
{
    Rng rng(25);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + rng.range(5000);
        // Value ranges from a handful of bits (many ties, one or two
        // digit passes) to the full 64 bits (every digit pass).
        const int bits = 1 + static_cast<int>(rng.range(64));
        std::vector<std::uint64_t> v(n);
        for (std::uint64_t &x : v)
            x = bits == 64 ? rng.next() : rng.next() >> (64 - bits);
        expectMatchesNthElement(v, "random");
        // Every rank of a small input, not only the callers'.
        if (n <= 64) {
            for (std::uint64_t k = 0; k < n; ++k)
                ASSERT_EQ(select(v, k), reference(v, k));
        }
    }
}

TEST(Select, TiedInputsMatchNthElement)
{
    Rng rng(2016);
    const std::size_t n = 4001;
    std::vector<std::uint64_t> same(n, 777);
    expectMatchesNthElement(same, "all equal");

    std::vector<std::uint64_t> two(n);
    for (std::uint64_t &x : two)
        x = rng.chance(0.3) ? 5 : 900;
    expectMatchesNthElement(two, "two-valued");

    // Two clusters far apart, each with spread: the selected rank
    // falls inside one cluster or at the edge between them.
    std::vector<std::uint64_t> bimodal(n);
    for (std::uint64_t &x : bimodal)
        x = rng.chance(0.98) ? 250'000 + rng.range(5000)
                             : 90'000'000 + rng.range(100'000);
    expectMatchesNthElement(bimodal, "bimodal");
}

TEST(Select, TinyInputs)
{
    // n = 0 has no rank to ask for: both callers return 0 without
    // selecting (the empty window at the end of
    // HttpLoadLatency.WindowMatchesBruteForce, and the empty logs of
    // FleetTrace.OnePassForensicsMatchesSortBasedReference).
    EXPECT_TRUE(callerRanks(0).empty());
    EXPECT_DEATH(select({}, 0), "rank past the last value");
    expectMatchesNthElement({42}, "n = 1");
    expectMatchesNthElement({0}, "n = 1, zero");
    expectMatchesNthElement({7, 3}, "n = 2");
    expectMatchesNthElement({3, 3}, "n = 2, tie");
    expectMatchesNthElement({~std::uint64_t{0}, 0}, "n = 2, extremes");
}

TEST(Select, ValuesPast2To40)
{
    Rng rng(40);
    std::vector<std::uint64_t> v(3000);
    for (std::uint64_t &x : v)
        x = (std::uint64_t{1} << 40) + rng.range(1u << 20) * 4099;
    expectMatchesNthElement(v, "offset 2^40");
    // The top of the range, where a shift by the full width would be
    // undefined: values differing in bit 63.
    for (std::uint64_t &x : v)
        x = rng.chance(0.5) ? ~std::uint64_t{0} - rng.range(100)
                            : rng.range(100);
    expectMatchesNthElement(v, "both ends of 64 bits");
}

TEST(Select, GroupsMatchNthElementPerGroup)
{
    // Groups of different sizes and ranges share every pass; group 2
    // gets no values and must come back as zeros.
    Rng rng(14);
    for (int round = 0; round < 50; ++round) {
        std::array<std::vector<std::uint64_t>, 4> v;
        for (std::size_t g : {0, 1, 3}) {
            const int bits = 1 + static_cast<int>(rng.range(40));
            v[g].resize(1 + rng.range(2000));
            for (std::uint64_t &x : v[g])
                x = rng.next() >> (64 - bits);
        }
        std::array<std::array<std::uint64_t, 3>, 4> ranks{};
        for (std::size_t g : {0, 1, 3}) {
            const std::uint64_t n = v[g].size();
            ranks[g] = {n / 2, rng.range(n), n - 1};
        }
        const auto visitAll = [&v](auto &&sink) {
            // Interleaved, as a pass over records feeding several
            // groups would.
            for (std::size_t i = 0; i < 2000; ++i)
                for (std::size_t g = 0; g < v.size(); ++g)
                    if (i < v[g].size())
                        sink(g, v[g][i]);
        };
        const auto wide = selectGroupRanks(visitAll, ranks);
        const auto narrow = selectGroupRanks<8>(visitAll, ranks);
        for (std::size_t g : {0, 1, 3})
            for (std::size_t k = 0; k < 3; ++k) {
                ASSERT_EQ(wide[g][k], reference(v[g], ranks[g][k]))
                    << "group " << g << " rank " << ranks[g][k];
                ASSERT_EQ(narrow[g][k], wide[g][k]);
            }
        for (std::size_t k = 0; k < 3; ++k)
            ASSERT_EQ(wide[2][k], RankedValue{});
    }
}

TEST(Select, RecordsMatchStableSortByKeys)
{
    // The first key takes one or two distinct values, so most picks
    // fall to the later keys, and those tie often enough that whole
    // records tie too: then the pick is the stable sort's, the one
    // visited first.
    struct Rec
    {
        std::array<std::uint64_t, 3> keys;
    };
    Rng rng(29);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + rng.range(300);
        const std::uint64_t firsts = 1 + rng.range(2);
        std::vector<Rec> recs(n);
        for (Rec &r : recs)
            r.keys = {1000 + 7 * rng.range(firsts), rng.range(5),
                      rng.range(3)};
        std::vector<const Rec *> sorted;
        for (const Rec &r : recs)
            sorted.push_back(&r);
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const Rec *a, const Rec *b) {
                             return a->keys < b->keys;
                         });
        const auto pick = [&](const auto &ranks) {
            return selectRecords<Rec>(
                [&recs](auto &&fn) {
                    for (const Rec &r : recs)
                        fn(r);
                },
                [](const Rec &r) { return r.keys; }, ranks);
        };
        const double top = static_cast<double>(n - 1);
        const std::array<std::uint64_t, 4> ranks = {
            static_cast<std::uint64_t>(0.50 * top + 0.5),
            static_cast<std::uint64_t>(0.99 * top),
            static_cast<std::uint64_t>(0.999 * top + 0.5), n - 1};
        const auto got = pick(ranks);
        for (std::size_t k = 0; k < ranks.size(); ++k)
            ASSERT_EQ(got[k], sorted[ranks[k]])
                << "rank " << ranks[k] << " of " << n;
        if (n > 40)
            continue;
        for (std::uint64_t k = 0; k < n; ++k)
            ASSERT_EQ(pick(std::array<std::uint64_t, 1>{k})[0], sorted[k])
                << "rank " << k << " of " << n;
    }
}

} // namespace
} // namespace fsim
