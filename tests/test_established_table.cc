/**
 * @file
 * Unit tests for the established-connection hash table (ehash): the
 * shared global table with per-bucket SimSpinLocks, and a private
 * per-core table, which keeps only each bucket's lock-word line.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "cpu/cache_model.hh"
#include "tcp/established_table.hh"

namespace fsim
{
namespace
{

struct EhashFixture : public ::testing::Test
{
    LockRegistry locks;
    CacheModel cache{4, 400};
    CycleCosts costs;
    EstablishedTable table{64, locks, cache, costs};

    std::vector<std::unique_ptr<Socket>> owned;

    Socket *
    conn(IpAddr s, Port sp, IpAddr d, Port dp)
    {
        owned.push_back(std::make_unique<Socket>());
        Socket *sock = owned.back().get();
        sock->kind = SockKind::kConnection;
        sock->rxTuple = FiveTuple{s, d, sp, dp};
        return sock;
    }
};

TEST_F(EhashFixture, InsertThenLookup)
{
    Socket *s = conn(1, 1000, 2, 80);
    Tick t = table.insert(0, 0, s);
    EXPECT_GT(t, 0u);
    auto l = table.lookup(0, t, s->rxTuple);
    EXPECT_EQ(l.sock, s);
    EXPECT_GT(l.t, t);
    EXPECT_EQ(table.size(), 1u);
}

TEST_F(EhashFixture, LookupMissReturnsNull)
{
    auto l = table.lookup(0, 0, FiveTuple{9, 9, 9, 9});
    EXPECT_EQ(l.sock, nullptr);
}

TEST_F(EhashFixture, RemoveMakesUnfindable)
{
    Socket *s = conn(1, 1000, 2, 80);
    table.insert(0, 0, s);
    table.remove(0, 0, s);
    EXPECT_EQ(table.lookup(0, 0, s->rxTuple).sock, nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST_F(EhashFixture, RemoveAbsentIsBenign)
{
    Socket *s = conn(1, 1000, 2, 80);
    Tick t = table.remove(0, 0, s);
    EXPECT_GT(t, 0u);   // still charges the probe + lock
    EXPECT_EQ(table.size(), 0u);
}

TEST_F(EhashFixture, CollidingTuplesShareBucketButResolve)
{
    // Force collisions with a tiny table.
    EstablishedTable tiny(2, locks, cache, costs);
    std::vector<Socket *> socks;
    for (int i = 0; i < 16; ++i) {
        Socket *s = conn(1, static_cast<Port>(1000 + i), 2, 80);
        tiny.insert(0, 0, s);
        socks.push_back(s);
    }
    for (Socket *s : socks)
        EXPECT_EQ(tiny.lookup(0, 0, s->rxTuple).sock, s);
}

TEST_F(EhashFixture, EhashLockChargedPerInsertAndRemove)
{
    Socket *s = conn(1, 1000, 2, 80);
    table.insert(0, 0, s);
    table.remove(0, 0, s);
    EXPECT_EQ(locks.getClass("ehash.lock")->acquisitions, 2u);
}

TEST_F(EhashFixture, LookupDoesNotTakeTheLock)
{
    Socket *s = conn(1, 1000, 2, 80);
    table.insert(0, 0, s);
    auto before = locks.getClass("ehash.lock")->acquisitions;
    table.lookup(1, 0, s->rxTuple);
    EXPECT_EQ(locks.getClass("ehash.lock")->acquisitions, before);
}

TEST_F(EhashFixture, SingleCoreUseNeverContends)
{
    // The Local Established Table argument (paper 3.2.2): one core only,
    // so the per-bucket locks never contend.
    Tick t = 0;
    for (int i = 0; i < 500; ++i) {
        Socket *s = conn(1, static_cast<Port>(1024 + i), 2, 80);
        t = table.insert(0, t, s);
        t = table.remove(0, t, s);
    }
    EXPECT_EQ(locks.getClass("ehash.lock")->contentions, 0u);
}

TEST_F(EhashFixture, AllEnumeratesEverySocket)
{
    for (int i = 0; i < 10; ++i)
        table.insert(0, 0, conn(1, static_cast<Port>(2000 + i), 2, 80));
    EXPECT_EQ(table.all().size(), 10u);
}

TEST_F(EhashFixture, DistinctTuplesDistinctSockets)
{
    Socket *a = conn(1, 1000, 2, 80);
    Socket *b = conn(1, 1000, 2, 81);   // same except dport
    table.insert(0, 0, a);
    table.insert(0, 0, b);
    EXPECT_EQ(table.lookup(0, 0, a->rxTuple).sock, a);
    EXPECT_EQ(table.lookup(0, 0, b->rxTuple).sock, b);
}

/**
 * A private table charges exactly what the shared table charges for the
 * same single-core operations: end ticks, the ehash.lock row and cache
 * traffic. 1024 buckets hold the 600 live sockets without a resize, so
 * both tables keep the same bucket layout.
 */
TEST(EhashPrivate, SingleCoreMatchesTheSharedTable)
{
    LockRegistry locksA, locksB;
    CacheModel cacheA(4, 400), cacheB(4, 400);
    CycleCosts costs;
    EstablishedTable shared(1024, locksA, cacheA, costs);
    EstablishedTable priv(1024, locksB, cacheB, costs, "ehash.lock",
                          /*owner=*/2);
    // Chains are intrusive: each table links its own copies.
    std::vector<Socket> socksA(600), socksB(600);
    Tick t = 0;
    for (std::size_t i = 0; i < socksA.size(); ++i) {
        socksA[i].rxTuple = socksB[i].rxTuple =
            FiveTuple{1, 2, static_cast<Port>(1000 + i), 80};
        const Tick a = shared.insert(2, t, &socksA[i]);
        ASSERT_EQ(a, priv.insert(2, t, &socksB[i]));
        t = a;
        if (i % 3 == 2) {
            const Tick r = shared.remove(2, t, &socksA[i - 1]);
            ASSERT_EQ(r, priv.remove(2, t, &socksB[i - 1]));
            t = r;
        }
    }
    ASSERT_EQ(priv.resizes(), 0u);
    EXPECT_EQ(shared.size(), priv.size());
    const LockClassStats *a = locksA.getClass("ehash.lock");
    const LockClassStats *b = locksB.getClass("ehash.lock");
    EXPECT_EQ(a->acquisitions, b->acquisitions);
    EXPECT_EQ(a->holdTicks, b->holdTicks);
    EXPECT_EQ(a->waitTicks, b->waitTicks);
    EXPECT_EQ(a->contentions, b->contentions);
    EXPECT_EQ(cacheA.accesses(2), cacheB.accesses(2));
    EXPECT_EQ(cacheA.misses(2), cacheB.misses(2));
}

TEST(EhashPrivateDeathTest, OnlyTheOwnerInsertsAndRemoves)
{
    LockRegistry locks;
    CacheModel cache(4, 400);
    CycleCosts costs;
    EstablishedTable table(64, locks, cache, costs, "ehash.lock",
                           /*owner=*/1);
    Socket a, b;
    a.rxTuple = FiveTuple{1, 2, 1000, 80};
    b.rxTuple = FiveTuple{1, 2, 1001, 80};
    table.insert(1, 0, &a);
    EXPECT_DEATH(table.insert(0, 0, &b), "c == owner_");
    EXPECT_DEATH(table.remove(3, 0, &a), "c == owner_");
}

/**
 * A resize leaves every lock word cold: the first insert into a grown
 * bucket pays the cold-line touch on the lock word, and the next
 * operation there does not. A lookup warms the bucket's own line first,
 * so the difference is the lock word alone.
 */
TEST(EhashPrivate, FirstInsertIntoAGrownBucketPaysAColdLockWord)
{
    LockRegistry locks;
    CacheModel cache(4, 400);
    CycleCosts costs;
    EstablishedTable table(4, locks, cache, costs, "ehash.lock",
                           /*owner=*/0);
    std::array<Socket, 6> socks;
    for (std::size_t i = 0; i < socks.size(); ++i)
        socks[i].rxTuple =
            FiveTuple{1, 2, static_cast<Port>(1000 + i), 80};
    const Tick uncontended = costs.lockAcquireBase + costs.ehashInsertHold;
    const Tick cold = cache.missPenalty() / 4;
    // Cycles of an insert or remove of @p s at tick @p t once its
    // bucket line is warm.
    const auto locked = [&](bool insert, Socket &s, Tick t) {
        table.lookup(0, t, s.rxTuple);
        return (insert ? table.insert(0, t, &s) : table.remove(0, t, &s)) -
               t;
    };

    for (std::size_t i = 0; i < 4; ++i)
        table.insert(0, 0, &socks[i]);
    // socks[0]'s bucket was locked by its insert: the lock word is warm.
    EXPECT_EQ(locked(false, socks[0], 1000), uncontended);
    table.insert(0, 0, &socks[4]);
    ASSERT_EQ(table.resizes(), 0u);
    table.insert(0, 0, &socks[5]);   // load factor > 1: doubles to 8
    ASSERT_EQ(table.resizes(), 1u);

    // No lock has been taken since the resize.
    EXPECT_EQ(locked(true, socks[0], 2000), uncontended + cold);
    EXPECT_EQ(locked(false, socks[0], 3000), uncontended);
    EXPECT_EQ(locked(true, socks[0], 4000), uncontended);
    EXPECT_EQ(table.resizes(), 1u);
    EXPECT_EQ(locks.getClass("ehash.lock")->contentions, 0u);
}

} // anonymous namespace
} // namespace fsim
