/**
 * @file
 * Unit tests for the ownership-based cache/coherence model and the
 * CacheLine state embedded in the objects it costs.
 */

#include <gtest/gtest.h>

#include <array>

#include "cpu/cache_model.hh"
#include "tcp/established_table.hh"

namespace fsim
{
namespace
{

TEST(CacheModel, ColdTouchIsCheapMiss)
{
    CacheModel cm(4, 400);
    CacheLine obj;
    EXPECT_EQ(cm.access(0, obj), 100u);   // missPenalty / 4
    EXPECT_EQ(cm.misses(0), 1u);
    EXPECT_EQ(cm.accesses(0), 1u);
}

TEST(CacheModel, LocalHitIsFree)
{
    CacheModel cm(4, 400);
    CacheLine obj;
    cm.access(0, obj);
    EXPECT_EQ(cm.access(0, obj), 0u);
    EXPECT_EQ(cm.misses(0), 1u);
    EXPECT_EQ(cm.accesses(0), 2u);
}

TEST(CacheModel, RemoteWriteMigratesOwnership)
{
    CacheModel cm(4, 400);
    CacheLine obj;
    cm.access(0, obj, true);
    EXPECT_EQ(cm.access(1, obj, true), 400u);
    // Now owned by core 1.
    EXPECT_EQ(cm.access(1, obj, true), 0u);
    EXPECT_EQ(cm.access(0, obj, true), 400u);
}

TEST(CacheModel, RemoteReadDoesNotMigrate)
{
    CacheModel cm(4, 400);
    CacheLine obj;
    cm.access(0, obj, true);
    EXPECT_EQ(cm.access(1, obj, false), 400u);
    // Still owned by core 0: another read from core 1 misses again.
    EXPECT_EQ(cm.access(1, obj, false), 400u);
    EXPECT_EQ(cm.access(0, obj, true), 0u);
}

TEST(CacheModel, NumaCrossNodeCostsMore)
{
    CacheModel cm(24, 400, /*node_size=*/12, /*remote=*/1000);
    CacheLine obj;
    cm.access(0, obj, true);
    EXPECT_EQ(cm.access(5, obj, true), 400u);     // same node
    EXPECT_EQ(cm.access(13, obj, true), 1000u);   // cross socket
    EXPECT_EQ(cm.access(23, obj, true), 400u);    // 13 and 23 share node 1
    EXPECT_EQ(cm.access(23, obj, true), 0u);      // now local
}

TEST(CacheModel, NodeMapping)
{
    CacheModel cm(24, 400, 12, 1000);
    EXPECT_EQ(cm.node(0), 0);
    EXPECT_EQ(cm.node(11), 0);
    EXPECT_EQ(cm.node(12), 1);
    EXPECT_EQ(cm.node(23), 1);
    CacheModel uma(24, 400);
    EXPECT_EQ(uma.node(23), 0);
}

TEST(CacheModel, MultiLineAccessScalesPenaltyAndCounts)
{
    CacheModel cm(4, 400);
    CacheLine obj;
    cm.access(0, obj, true);
    EXPECT_EQ(cm.access(1, obj, true, 3), 1200u);
    EXPECT_EQ(cm.misses(1), 3u);
    EXPECT_EQ(cm.accesses(1), 3u);
}

TEST(CacheModel, DefaultLineIsCold)
{
    CacheModel cm(2, 400);
    CacheLine line;
    EXPECT_EQ(line.owner, kInvalidCore);
    EXPECT_EQ(cm.access(1, line, false), 100u);   // cold: missPenalty / 4
    EXPECT_EQ(line.owner, 1);   // a cold read claims the line
    // Re-initialising the embedding object makes its line cold again.
    cm.access(0, line, true);
    line = CacheLine{};
    EXPECT_EQ(cm.access(1, line), 100u);
}

TEST(CacheModel, EhashResizeBucketsStartCold)
{
    LockRegistry locks;
    CacheModel cache(4, 400);
    CycleCosts costs;
    EstablishedTable table(4, locks, cache, costs, "ehash.lock",
                           /*resizable=*/true);
    std::array<Socket, 5> socks;
    for (std::size_t i = 0; i < socks.size(); ++i)
        socks[i].rxTuple =
            FiveTuple{1, 2, static_cast<Port>(1000 + i), 80};
    // Cycles a lookup paid for the bucket line alone.
    const auto linePenalty = [&](CoreId c, const FiveTuple &tuple) {
        const std::uint64_t walked = table.probesWalked();
        const Tick t = table.lookup(c, 0, tuple).t;
        return t - costs.ehashLookup -
               (table.probesWalked() - walked) * costs.ehashChainProbe;
    };
    for (std::size_t i = 0; i < 4; ++i)
        table.insert(0, 0, &socks[i]);
    ASSERT_EQ(table.resizes(), 0u);
    // Core 0 wrote the bucket line on insert: core 1 pays a transfer.
    EXPECT_EQ(linePenalty(1, socks[0].rxTuple), 400u);
    table.insert(0, 0, &socks[4]);   // load factor > 1: doubles to 8
    ASSERT_EQ(table.resizes(), 1u);
    // Every bucket of the grown array is cold, whatever core warmed the
    // bucket its entries came from.
    EXPECT_EQ(linePenalty(1, socks[0].rxTuple), 100u);
}

TEST(CacheModel, BackgroundMissesAccumulate)
{
    CacheModel cm(2, 400);
    cm.setBackgroundMissRate(0.1);
    cm.noteLocalAccesses(0, 1000);
    EXPECT_EQ(cm.accesses(0), 1000u);
    EXPECT_EQ(cm.misses(0), 100u);
}

TEST(CacheModel, MissRateAggregates)
{
    CacheModel cm(2, 400);
    CacheLine obj;
    cm.access(0, obj);            // 1 miss
    cm.noteLocalAccesses(0, 9);   // 9 hits (no bg rate)
    EXPECT_DOUBLE_EQ(cm.missRate(), 0.1);
    EXPECT_EQ(cm.totalAccesses(), 10u);
    EXPECT_EQ(cm.totalMisses(), 1u);
}

/** Property: ping-pong between N cores misses every time. */
class CachePingPong : public ::testing::TestWithParam<int>
{
};

TEST_P(CachePingPong, EveryHandoffMisses)
{
    int n = GetParam();
    CacheModel cm(n, 400);
    CacheLine obj;
    cm.access(0, obj, true);
    std::uint64_t misses_before = cm.totalMisses();
    for (int i = 0; i < 100; ++i)
        cm.access(i % n, obj, true);
    std::uint64_t new_misses = cm.totalMisses() - misses_before;
    // Round-robin writers: with more than one core every access lands on
    // a line another core just owned — except the very first iteration,
    // where core 0 still owns the line from the warm-up access.
    EXPECT_EQ(new_misses, n == 1 ? 0u : 99u);
}

INSTANTIATE_TEST_SUITE_P(Cores, CachePingPong,
                         ::testing::Values(1, 2, 3, 8));

} // anonymous namespace
} // namespace fsim
