/**
 * @file
 * Unit tests for the ephemeral port allocator, including the RFD
 * core-encoding policy.
 */

#include <gtest/gtest.h>

#include <set>

#include "tcp/port_alloc.hh"

namespace fsim
{
namespace
{

TEST(PortAlloc, AllocatesUniquePorts)
{
    PortAllocator pa(32768, 32867);   // 100 ports
    std::set<Port> got;
    for (int i = 0; i < 100; ++i) {
        Port p = pa.alloc(1, 80);
        ASSERT_NE(p, 0);
        EXPECT_TRUE(got.insert(p).second);
        EXPECT_GE(p, 32768);
        EXPECT_LE(p, 32867);
    }
    EXPECT_EQ(pa.alloc(1, 80), 0) << "range exhausted";
    EXPECT_EQ(pa.inUseCount(), 100u);
}

TEST(PortAlloc, PerDestinationIndependence)
{
    PortAllocator pa(32768, 32769);   // 2 ports
    EXPECT_NE(pa.alloc(1, 80), 0);
    EXPECT_NE(pa.alloc(1, 80), 0);
    EXPECT_EQ(pa.alloc(1, 80), 0);
    // A different destination has its own namespace (four-tuple reuse).
    EXPECT_NE(pa.alloc(2, 80), 0);
    EXPECT_NE(pa.alloc(1, 443), 0);
}

TEST(PortAlloc, ReleaseMakesReusable)
{
    PortAllocator pa(32768, 32769);
    Port a = pa.alloc(1, 80);
    Port b = pa.alloc(1, 80);
    (void)b;
    EXPECT_EQ(pa.alloc(1, 80), 0);
    EXPECT_TRUE(pa.release(1, 80, a));
    EXPECT_FALSE(pa.release(1, 80, a));
    Port c = pa.alloc(1, 80);
    EXPECT_EQ(c, a);
}

TEST(PortAlloc, ClaimSpecificPort)
{
    PortAllocator pa;
    EXPECT_TRUE(pa.claim(1, 80, 40000));
    EXPECT_FALSE(pa.claim(1, 80, 40000));
    EXPECT_TRUE(pa.inUse(1, 80, 40000));
    EXPECT_TRUE(pa.release(1, 80, 40000));
    EXPECT_FALSE(pa.inUse(1, 80, 40000));
}

TEST(PortAlloc, ClaimAboveEphemeralRange)
{
    // RFD spreads candidates over all 16 bits, so claim/inUse/release
    // must hold for ports past hi() (default 61000) up to 65535.
    PortAllocator pa;
    EXPECT_FALSE(pa.inUse(1, 80, 65535));
    EXPECT_TRUE(pa.claim(1, 80, 65535));
    EXPECT_TRUE(pa.inUse(1, 80, 65535));
    EXPECT_FALSE(pa.claim(1, 80, 65535));
    EXPECT_EQ(pa.inUseCount(), 1u);
    EXPECT_TRUE(pa.release(1, 80, 65535));
    EXPECT_FALSE(pa.inUse(1, 80, 65535));
    EXPECT_EQ(pa.inUseCount(), 0u);
}

TEST(PortAlloc, InUseReflectsState)
{
    PortAllocator pa;
    Port p = pa.alloc(5, 80);
    EXPECT_TRUE(pa.inUse(5, 80, p));
    EXPECT_FALSE(pa.inUse(6, 80, p));
}

/** Property: allocForCore always satisfies (p & mask) == core. */
class PortForCore : public ::testing::TestWithParam<int>
{
};

TEST_P(PortForCore, EncodingHolds)
{
    int ncores = GetParam();
    Port mask = 1;
    while (static_cast<int>(mask) + 1 < ncores)
        mask = static_cast<Port>((mask << 1) | 1);
    if (ncores == 1)
        mask = 0;

    PortAllocator pa;
    for (CoreId c = 0; c < ncores; ++c) {
        for (int i = 0; i < 50; ++i) {
            Port p = pa.allocForCore(9, 80, c, mask);
            ASSERT_NE(p, 0);
            EXPECT_EQ(p & mask, c)
                << "hash(psrc) must equal the initiating core";
            EXPECT_GE(p, pa.lo());
            EXPECT_LE(p, pa.hi());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, PortForCore,
                         ::testing::Values(1, 2, 8, 12, 24));

TEST(PortAlloc, AllocForCoreExhaustsItsStripeOnly)
{
    // mask 3 -> stride 4; range of 8 ports holds 2 per core.
    PortAllocator pa(32768, 32775);
    EXPECT_NE(pa.allocForCore(1, 80, 0, 3), 0);
    EXPECT_NE(pa.allocForCore(1, 80, 0, 3), 0);
    EXPECT_EQ(pa.allocForCore(1, 80, 0, 3), 0);
    // Other cores unaffected.
    EXPECT_NE(pa.allocForCore(1, 80, 1, 3), 0);
}

TEST(PortAlloc, WraparoundSearchTerminatesAndStaysExact)
{
    // The rotating next-fit hint wraps past hi_ constantly under churn;
    // the search must terminate (never loop forever), never hand out an
    // in-use port, and exhaust cleanly to 0 each cycle.
    PortAllocator pa(40000, 40099);   // 100 ports
    std::vector<Port> held;
    for (int cycle = 0; cycle < 50; ++cycle) {
        std::set<Port> got;
        for (int i = 0; i < 100; ++i) {
            Port p = pa.alloc(1, 80);
            ASSERT_NE(p, 0) << "cycle " << cycle << " alloc " << i;
            EXPECT_TRUE(got.insert(p).second)
                << "port " << p << " aliased in cycle " << cycle;
            held.push_back(p);
        }
        EXPECT_EQ(pa.alloc(1, 80), 0) << "exhaustion must return 0";
        EXPECT_EQ(pa.inUseCount(), 100u);
        for (Port p : held)
            EXPECT_TRUE(pa.release(1, 80, p));
        held.clear();
        EXPECT_EQ(pa.inUseCount(), 0u);
    }
}

TEST(PortAlloc, FragmentedReuseNeverAliases)
{
    // Release a scattered third of a full range, then refill: the
    // allocator must hand back exactly the released ports, once each.
    PortAllocator pa(50000, 50299);   // 300 ports
    std::vector<Port> all;
    for (int i = 0; i < 300; ++i) {
        Port p = pa.alloc(9, 443);
        ASSERT_NE(p, 0);
        all.push_back(p);
    }
    std::set<Port> freed;
    for (std::size_t i = 0; i < all.size(); i += 3) {
        freed.insert(all[i]);
        EXPECT_TRUE(pa.release(9, 443, all[i]));
    }
    std::set<Port> refilled;
    for (std::size_t i = 0; i < freed.size(); ++i) {
        Port p = pa.alloc(9, 443);
        ASSERT_NE(p, 0);
        EXPECT_TRUE(freed.count(p))
            << "port " << p << " was not in the freed set";
        EXPECT_TRUE(refilled.insert(p).second);
    }
    EXPECT_EQ(refilled, freed);
    EXPECT_EQ(pa.alloc(9, 443), 0);
    EXPECT_EQ(pa.inUseCount(), 300u);
}

TEST(PortAlloc, AllocForCoreWraparoundExhaustsCleanly)
{
    // The striped (RFD) search also wraps; exhaustion of one stripe
    // must terminate with 0 while other stripes keep allocating, cycle
    // after cycle.
    PortAllocator pa(32768, 32799);   // 32 ports, 8 per core at mask 3
    for (int cycle = 0; cycle < 20; ++cycle) {
        std::vector<Port> got;
        for (int i = 0; i < 8; ++i) {
            Port p = pa.allocForCore(4, 80, 2, 3);
            ASSERT_NE(p, 0);
            EXPECT_EQ(p & 3, 2);
            got.push_back(p);
        }
        EXPECT_EQ(pa.allocForCore(4, 80, 2, 3), 0);
        Port probe = pa.allocForCore(4, 80, 3, 3);
        EXPECT_NE(probe, 0)
            << "other stripes unaffected by core 2's exhaustion";
        EXPECT_TRUE(pa.release(4, 80, probe));
        for (Port p : got)
            EXPECT_TRUE(pa.release(4, 80, p));
        EXPECT_EQ(pa.inUseCount(), 0u);
    }
}

TEST(PortAlloc, MixedPoliciesCoexist)
{
    PortAllocator pa(32768, 33000);
    Port rfd = pa.allocForCore(1, 80, 2, 7);
    Port any = pa.alloc(1, 80);
    EXPECT_NE(rfd, any);
    EXPECT_TRUE(pa.inUse(1, 80, rfd));
    EXPECT_TRUE(pa.inUse(1, 80, any));
}

} // anonymous namespace
} // namespace fsim
