/**
 * @file
 * Differential test: FlatMap vs std::unordered_map.
 *
 * A million randomized insert / find / erase operations per hash
 * (seeded by sim/rng so a failure replays exactly) are fed to both maps
 * in lockstep. The hashes are the default MixHash, a clustered one that
 * gives every 8 consecutive keys one home slot, and a degenerate one
 * that homes every key in the last four slots, so a single probe run
 * wraps past the end of the table and backward-shift deletion has to
 * carry entries across the wrap. After every operation the two maps
 * must agree on the result and the size, and every 10,000 operations
 * on the full contents.
 * Directed cases erase the head, middle and tail of a run, check that
 * forEach visits each live entry exactly once, and audit that churn
 * below the high-water capacity never touches the allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/alloc_audit.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"

#include "alloc_hook.hh"

namespace fsim
{
namespace
{

/** Every 8 consecutive keys share a home slot: many medium runs. */
struct ClusteredHash
{
    std::size_t operator()(std::uint64_t k) const
    {
        return static_cast<std::size_t>((k >> 3) * 0x9e3779b97f4a7c15ULL);
    }
};

/** Every key homes in the table's last four slots: one run that wraps. */
struct WrapHash
{
    std::size_t operator()(std::uint64_t k) const
    {
        return ~std::size_t{0} - static_cast<std::size_t>(k & 3);
    }
};

template <typename Hash>
using Map = FlatMap<std::uint64_t, std::uint64_t, Hash>;

/** Sorted (key, value) pairs that forEach visits. */
template <typename Hash>
std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const Map<Hash> &m)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    m.forEach([&out](std::uint64_t k, std::uint64_t v) {
        out.emplace_back(k, v);
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const std::unordered_map<std::uint64_t, std::uint64_t> &m)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out(m.begin(),
                                                             m.end());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Run @p ops random operations on keys below @p key_range against both
 * maps. The insert share drifts between phases so the population rises
 * to the key range and drains back, crossing every growth step.
 */
template <typename Hash>
void
differential(std::uint64_t seed, int ops, std::uint64_t key_range)
{
    Map<Hash> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const double insertShare = (i / 50'000) % 2 == 0 ? 0.6 : 0.3;
        const std::uint64_t k = rng.range(key_range);
        const double u = rng.uniform();
        if (u < insertShare) {
            const std::uint64_t v = rng.next();
            const auto [stored, inserted] = flat.insert(k, v);
            const auto [it, refInserted] = ref.emplace(k, v);
            ASSERT_EQ(inserted, refInserted) << "op " << i << " seed " << seed;
            ASSERT_EQ(*stored, it->second) << "op " << i << " seed " << seed;
        } else if (u < insertShare + 0.3) {
            ASSERT_EQ(flat.erase(k), ref.erase(k) == 1)
                << "op " << i << " seed " << seed;
        } else {
            const std::uint64_t *v = flat.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end())
                << "op " << i << " seed " << seed;
            if (v) {
                ASSERT_EQ(*v, it->second)
                    << "op " << i << " seed " << seed;
            }
        }
        ASSERT_EQ(flat.size(), ref.size()) << "op " << i << " seed " << seed;
        if (i % 10'000 == 0) {
            ASSERT_EQ(contents(flat), contents(ref))
                << "op " << i << " seed " << seed;
        }
    }
    ASSERT_EQ(contents(flat), contents(ref));
}

TEST(FlatMap, DifferentialDefaultHash)
{
    differential<MixHash>(1, 1'000'000, 1 << 14);
}

TEST(FlatMap, DifferentialClusteredHash)
{
    differential<ClusteredHash>(2, 1'000'000, 1 << 12);
}

TEST(FlatMap, DifferentialWrappingRun)
{
    // Every lookup walks the one run, so keep the population small.
    differential<WrapHash>(3, 1'000'000, 96);
}

/** All keys of one run, checked after each erase. */
template <typename Hash>
void
expectExactly(const Map<Hash> &m, const std::vector<std::uint64_t> &keys)
{
    ASSERT_EQ(m.size(), keys.size());
    for (std::uint64_t k : keys) {
        const std::uint64_t *v = m.find(k);
        ASSERT_NE(v, nullptr) << "key " << k;
        EXPECT_EQ(*v, k * 10) << "key " << k;
    }
}

TEST(FlatMap, EraseHeadMiddleAndTailOfAWrappingRun)
{
    // Keys 0..7 home in the last four slots of a 16-slot table (key k
    // in slot 15 - k % 4), so the run fills slots 12..15 and wraps on
    // into 0..3 with home slots interleaved: the backward shift must
    // carry entries back across the wrap yet skip any that would land
    // before their home.
    Map<WrapHash> m;
    std::vector<std::uint64_t> live;
    for (std::uint64_t k = 0; k < 8; ++k) {
        m.insert(k, k * 10);
        live.push_back(k);
    }
    expectExactly(m, live);

    auto eraseKey = [&](std::uint64_t k) {
        live.erase(std::find(live.begin(), live.end(), k));
        EXPECT_TRUE(m.erase(k));
        EXPECT_EQ(m.find(k), nullptr);
        EXPECT_FALSE(m.erase(k));
        expectExactly(m, live);
    };
    eraseKey(3);     // head (slot 12): only key 7, from slot 3, moves
    eraseKey(0);     // middle (slot 15): keys 4, 5, 6 shift back
    eraseKey(6);     // tail: the run's last entry, now in slot 1

    // Refill into the holes the shifts left and drain completely.
    for (std::uint64_t k : {0, 3, 6}) {
        EXPECT_TRUE(m.insert(k, k * 10).second);
        live.push_back(k);
    }
    expectExactly(m, live);
    while (!live.empty())
        eraseKey(live.back());
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, InsertKeepsExistingValue)
{
    Map<MixHash> m;
    EXPECT_TRUE(m.insert(4, 40).second);
    const auto [v, inserted] = m.insert(4, 41);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*v, 40u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, ForEachVisitsEachLiveEntryOnce)
{
    Map<ClusteredHash> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(4);
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t k = rng.range(5000);
        if (rng.chance(0.55)) {
            m.insert(k, k + 1);
            ref.emplace(k, k + 1);
        } else {
            m.erase(k);
            ref.erase(k);
        }
    }
    std::unordered_map<std::uint64_t, int> visits;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        EXPECT_EQ(v, k + 1);
        ++visits[k];
    });
    EXPECT_EQ(visits.size(), ref.size());
    for (const auto &[k, n] : visits) {
        EXPECT_EQ(n, 1) << "key " << k;
        EXPECT_TRUE(ref.count(k)) << "key " << k;
    }
}

TEST(FlatMap, ChurnBelowHighWaterIsAllocationFree)
{
    // Reach the high-water population once, then churn at a constant
    // size: erase a random live key, insert a fresh one.
    constexpr std::size_t kLive = 3000;
    Map<MixHash> m;
    Rng rng(5);
    std::vector<std::uint64_t> keys;
    keys.reserve(kLive);
    std::uint64_t next = 0;
    while (keys.size() < kLive) {
        keys.push_back(next * 0x9e3779b97f4a7c15ULL);
        m.insert(keys.back(), next++);
    }
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (int i = 0; i < 300'000; ++i) {
            std::uint64_t &k = keys[rng.range(kLive)];
            ASSERT_TRUE(m.erase(k));
            k = next * 0x9e3779b97f4a7c15ULL;
            ASSERT_TRUE(m.insert(k, next++).second);
        }
        audited = AllocAudit::disarm();
    }
    ASSERT_TRUE(AllocAudit::hooked());
    if (audited) dumpAllocHistogram("flat map churn");
    EXPECT_EQ(audited, 0u);
    EXPECT_EQ(m.size(), kLive);
}

} // namespace
} // namespace fsim
