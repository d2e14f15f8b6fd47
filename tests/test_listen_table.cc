/**
 * @file
 * Unit tests for the listen table, including the SO_REUSEPORT chain-walk
 * behavior the paper measures in section 2.1.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "sim/rng.hh"
#include "tcp/listen_table.hh"

namespace fsim
{
namespace
{

std::unique_ptr<Socket>
listener(IpAddr addr, Port port)
{
    auto s = std::make_unique<Socket>();
    s->kind = SockKind::kListen;
    s->state = TcpState::kListen;
    s->bindAddr = addr;
    s->bindPort = port;
    return s;
}

TEST(ListenTable, ExactMatch)
{
    ListenTable t;
    Rng rng(1);
    auto a = listener(10, 80);
    t.insert(a.get());
    auto l = t.lookup(10, 80, rng);
    EXPECT_EQ(l.sock, a.get());
    EXPECT_EQ(l.walked, 1);
    EXPECT_EQ(t.lookup(10, 81, rng).sock, nullptr);
    EXPECT_EQ(t.lookup(11, 80, rng).sock, nullptr);
}

TEST(ListenTable, WildcardFallback)
{
    ListenTable t;
    Rng rng(1);
    auto any = listener(0, 80);
    t.insert(any.get());
    EXPECT_EQ(t.lookup(123, 80, rng).sock, any.get());
}

TEST(ListenTable, ExactPreferredOverWildcard)
{
    ListenTable t;
    Rng rng(1);
    auto any = listener(0, 80);
    auto exact = listener(10, 80);
    t.insert(any.get());
    t.insert(exact.get());
    EXPECT_EQ(t.lookup(10, 80, rng).sock, exact.get());
    EXPECT_EQ(t.lookup(99, 80, rng).sock, any.get());
}

TEST(ListenTable, RemoveAndEmpty)
{
    ListenTable t;
    Rng rng(1);
    auto a = listener(10, 80);
    t.insert(a.get());
    EXPECT_TRUE(t.remove(a.get()));
    EXPECT_FALSE(t.remove(a.get()));
    EXPECT_EQ(t.lookup(10, 80, rng).sock, nullptr);
    EXPECT_EQ(t.size(), 0u);
}

TEST(ListenTable, RemoveOfAnAbsentCloneKeepsTheChain)
{
    ListenTable t;
    Rng rng(1);
    auto a = listener(10, 80);
    auto b = listener(10, 80);
    t.insert(a.get());
    EXPECT_FALSE(t.remove(b.get())) << "same bucket, not in the chain";
    EXPECT_EQ(t.lookup(10, 80, rng).sock, a.get());
    EXPECT_EQ(t.size(), 1u);
}

TEST(ListenTable, ReuseportChainWalkIsOrderN)
{
    ListenTable t;
    Rng rng(1);
    std::vector<std::unique_ptr<Socket>> clones;
    for (int i = 0; i < 24; ++i) {
        clones.push_back(listener(10, 80));
        clones.back()->reuseportOwner = i;
        t.insert(clones.back().get());
    }
    auto l = t.lookup(10, 80, rng);
    // The whole 24-entry chain is scored (inet_lookup_listener O(n)).
    EXPECT_EQ(l.walked, 24);
    ASSERT_NE(l.chain, nullptr);
    EXPECT_EQ(l.chain->size(), 24u);
    EXPECT_EQ(t.chainLength(10, 80), 24u);
}

TEST(ListenTable, ReuseportPickIsRoughlyUniform)
{
    ListenTable t;
    Rng rng(99);
    std::vector<std::unique_ptr<Socket>> clones;
    for (int i = 0; i < 8; ++i) {
        clones.push_back(listener(10, 80));
        clones.back()->reuseportOwner = i;
        t.insert(clones.back().get());
    }
    std::map<int, int> picks;
    for (int i = 0; i < 8000; ++i)
        ++picks[t.lookup(10, 80, rng).sock->reuseportOwner];
    ASSERT_EQ(picks.size(), 8u);
    for (auto &kv : picks)
        EXPECT_NEAR(kv.second, 1000, 150);
}

TEST(ListenTable, RemoveShrinksChain)
{
    ListenTable t;
    Rng rng(1);
    auto a = listener(10, 80);
    auto b = listener(10, 80);
    t.insert(a.get());
    t.insert(b.get());
    EXPECT_TRUE(t.remove(a.get()));
    EXPECT_EQ(t.chainLength(10, 80), 1u);
    EXPECT_EQ(t.lookup(10, 80, rng).sock, b.get());
}

TEST(ListenTable, FindExactReturnsFirst)
{
    ListenTable t;
    auto a = listener(10, 80);
    t.insert(a.get());
    EXPECT_EQ(t.findExact(10, 80), a.get());
    EXPECT_EQ(t.findExact(10, 81), nullptr);
}

TEST(ListenTable, AllEnumerates)
{
    ListenTable t;
    auto a = listener(10, 80);
    auto b = listener(11, 80);
    auto c = listener(10, 443);
    t.insert(a.get());
    t.insert(b.get());
    t.insert(c.get());
    EXPECT_EQ(t.all().size(), 3u);
    EXPECT_EQ(t.size(), 3u);
}

TEST(ListenTable, DistinctPortsIndependent)
{
    ListenTable t;
    Rng rng(1);
    auto a = listener(10, 80);
    auto b = listener(10, 8080);
    t.insert(a.get());
    t.insert(b.get());
    EXPECT_EQ(t.lookup(10, 80, rng).sock, a.get());
    EXPECT_EQ(t.lookup(10, 8080, rng).sock, b.get());
}

} // anonymous namespace
} // namespace fsim
