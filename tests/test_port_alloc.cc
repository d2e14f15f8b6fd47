/**
 * @file
 * Unit tests for the ephemeral port allocator. RFD's core-encoding port
 * choice lives in KernelStack::connect and is tested there
 * (test_kernel_stack.cc).
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

} // anonymous namespace
} // namespace fsim
