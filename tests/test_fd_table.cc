/**
 * @file
 * Unit tests for the lowest-available-fd bitmap allocator.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hh"
#include "vfs/fd_table.hh"

namespace fsim
{
namespace
{

TEST(FdTable, StartsAtFirstFd)
{
    FdTable t(3);
    EXPECT_EQ(t.alloc(), 3);
    EXPECT_EQ(t.alloc(), 4);
    EXPECT_EQ(t.alloc(), 5);
}

TEST(FdTable, LowestFreeReused)
{
    FdTable t(3);
    int a = t.alloc();
    int b = t.alloc();
    int c = t.alloc();
    (void)c;
    EXPECT_TRUE(t.free(b));
    EXPECT_TRUE(t.free(a));
    // POSIX rule: the lowest available descriptor comes back first.
    EXPECT_EQ(t.alloc(), a);
    EXPECT_EQ(t.alloc(), b);
}

TEST(FdTable, DoubleFreeRejected)
{
    FdTable t;
    int fd = t.alloc();
    EXPECT_TRUE(t.free(fd));
    EXPECT_FALSE(t.free(fd));
}

TEST(FdTable, FreeingReservedFdsRejected)
{
    FdTable t(3);
    EXPECT_FALSE(t.free(0));
    EXPECT_FALSE(t.free(2));
    EXPECT_FALSE(t.free(-1));
    EXPECT_FALSE(t.free(100000));
}

TEST(FdTable, InUseTracksState)
{
    FdTable t;
    EXPECT_FALSE(t.inUse(5));
    int fd = t.alloc();
    EXPECT_TRUE(t.inUse(fd));
    t.free(fd);
    EXPECT_FALSE(t.inUse(fd));
    EXPECT_FALSE(t.inUse(-1));
    EXPECT_FALSE(t.inUse(1 << 20)) << "past the bitmap";
}

TEST(FdTable, GrowsBeyondInitialWords)
{
    FdTable t(0);
    std::set<int> fds;
    for (int i = 0; i < 1000; ++i)
        fds.insert(t.alloc());
    EXPECT_EQ(fds.size(), 1000u);
    EXPECT_EQ(*fds.begin(), 0);
    EXPECT_EQ(*fds.rbegin(), 999);
    EXPECT_EQ(t.openCount(), 1000);
    EXPECT_EQ(t.highWater(), 1000);
}

TEST(FdTable, OpenCountBalances)
{
    FdTable t;
    int a = t.alloc();
    int b = t.alloc();
    EXPECT_EQ(t.openCount(), 2);
    t.free(a);
    t.free(b);
    EXPECT_EQ(t.openCount(), 0);
}

TEST(FdTable, DenseAfterChurn)
{
    // The HAProxy assumption (paper section 5): fds never exceed the
    // concurrent connection count, because the lowest fd is always
    // reused. Steady-state churn must not grow the high-water mark.
    FdTable t(0);
    std::vector<int> open;
    for (int i = 0; i < 64; ++i)
        open.push_back(t.alloc());
    int high = t.highWater();
    for (int round = 0; round < 200; ++round) {
        t.free(open[round % 64]);
        open[round % 64] = t.alloc();
    }
    EXPECT_EQ(t.highWater(), high);
}

/** Property: the allocator always returns the global minimum free fd. */
class FdLowestProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FdLowestProperty, AlwaysLowest)
{
    Rng rng(GetParam());
    FdTable t(3);
    std::set<int> ref;   // currently allocated
    for (int step = 0; step < 3000; ++step) {
        if (ref.empty() || rng.chance(0.6)) {
            int fd = t.alloc();
            // fd must be the smallest integer >= 3 not in ref.
            int expect = 3;
            while (ref.count(expect))
                ++expect;
            EXPECT_EQ(fd, expect);
            ref.insert(fd);
        } else {
            auto it = ref.begin();
            std::advance(it, rng.range(ref.size()));
            EXPECT_TRUE(t.free(*it));
            ref.erase(it);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdLowestProperty,
                         ::testing::Values(5, 21, 777));

} // anonymous namespace
} // namespace fsim
