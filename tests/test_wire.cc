/**
 * @file
 * Unit tests for the latency-only wire fabric.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/net_port.hh"
#include "net/wire.hh"

namespace fsim
{
namespace
{

TEST(Wire, DeliversAfterDelay)
{
    EventQueue eq;
    Wire wire(eq, 500);
    Tick arrived = 0;
    wire.attach(42, [&](const Packet &) { arrived = eq.now(); });
    Packet p;
    p.tuple.daddr = 42;
    wire.transmit(p, 100);
    eq.runAll();
    EXPECT_EQ(arrived, 600u);
    EXPECT_EQ(wire.delivered(), 1u);
}

TEST(Wire, RoutesByDestination)
{
    EventQueue eq;
    Wire wire(eq, 10);
    int a = 0, b = 0;
    wire.attach(1, [&](const Packet &) { ++a; });
    wire.attach(2, [&](const Packet &) { ++b; });
    Packet p;
    p.tuple.daddr = 2;
    wire.transmit(p, 0);
    p.tuple.daddr = 1;
    wire.transmit(p, 0);
    wire.transmit(p, 0);
    eq.runAll();
    EXPECT_EQ(a, 2);
    EXPECT_EQ(b, 1);
}

TEST(Wire, RangeEndpointCatchesWholeBlock)
{
    EventQueue eq;
    Wire wire(eq, 10);
    std::vector<IpAddr> seen;
    wire.attachRange(100, 199,
                     [&](const Packet &p) { seen.push_back(p.tuple.daddr); });
    for (IpAddr d : {100u, 150u, 199u}) {
        Packet p;
        p.tuple.daddr = d;
        wire.transmit(p, 0);
    }
    eq.runAll();
    EXPECT_EQ(seen, (std::vector<IpAddr>{100, 150, 199}));
}

TEST(Wire, ExactBeatsRange)
{
    EventQueue eq;
    Wire wire(eq, 10);
    int exact = 0, range = 0;
    wire.attachRange(0, 1000, [&](const Packet &) { ++range; });
    wire.attach(5, [&](const Packet &) { ++exact; });
    Packet p;
    p.tuple.daddr = 5;
    wire.transmit(p, 0);
    eq.runAll();
    EXPECT_EQ(exact, 1);
    EXPECT_EQ(range, 0);
}

TEST(Wire, UnknownDestinationDropped)
{
    EventQueue eq;
    Wire wire(eq, 10);
    Packet p;
    p.tuple.daddr = 9999;
    wire.transmit(p, 0);
    eq.runAll();
    EXPECT_EQ(wire.dropped(), 1u);
    EXPECT_EQ(wire.delivered(), 0u);
}

TEST(Wire, InOrderDeliveryForEqualSendTimes)
{
    EventQueue eq;
    Wire wire(eq, 10);
    std::vector<std::uint64_t> ids;
    wire.attach(1, [&](const Packet &p) { ids.push_back(p.connId); });
    for (std::uint64_t i = 0; i < 5; ++i) {
        Packet p;
        p.tuple.daddr = 1;
        p.connId = i;
        wire.transmit(p, 0);
    }
    eq.runAll();
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Wire, PayloadAndFlagsSurviveTransit)
{
    EventQueue eq;
    Wire wire(eq, 10);
    Packet got;
    wire.attach(1, [&](const Packet &p) { got = p; });
    Packet p;
    p.tuple = FiveTuple{7, 1, 1234, 80};
    p.flags = kSyn | kAck;
    p.payload = 600;
    wire.transmit(p, 0);
    eq.runAll();
    EXPECT_EQ(got.tuple, p.tuple);
    EXPECT_EQ(got.flags, p.flags);
    EXPECT_EQ(got.payload, 600u);
}

TEST(Wire, LinkChargesAtLeastOneTickPerKiB)
{
    // A link so fast that a KiB serializes in under a tick still takes
    // one: the serialization cost never rounds down to free.
    EventQueue eq;
    Wire wire(eq, 10);
    Wire::LinkSpec link;
    link.aFirst = link.aLast = 1;
    link.bFirst = link.bLast = 2;
    link.latency = 100;
    link.gbps = 1e6;
    wire.addLink(link);
    Tick arrived = 0;
    wire.attach(2, [&](const Packet &) { arrived = eq.now(); });
    Packet p;
    p.tuple.saddr = 1;
    p.tuple.daddr = 2;
    wire.transmit(p, 0);
    eq.runAll();
    EXPECT_EQ(arrived, 101u);
}

TEST(Wire, NetPortAttachesRangesOnTheFabric)
{
    EventQueue eq;
    Wire fabric(eq, 10);
    NetPort port(fabric);
    std::vector<IpAddr> seen;
    port.attachRange(100, 199,
                     [&](const Packet &p) { seen.push_back(p.tuple.daddr); });
    Packet p;
    p.tuple.daddr = 150;
    fabric.transmit(p, 0);
    eq.runAll();
    EXPECT_EQ(seen, (std::vector<IpAddr>{150}));
    EXPECT_TRUE(port.attachedAddrs().empty()) << "a range is no address";
}

} // anonymous namespace
} // namespace fsim
