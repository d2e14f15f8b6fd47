/**
 * @file
 * The L4 balancer alone on a fabric, driven by hand-made packets:
 * round-robin steering, the RSTs it answers when it cannot create a
 * flow (flow table full, no healthy target), flow retirement, and a
 * crashed balancer's silence.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fleet/balancer.hh"

namespace fsim
{
namespace
{

constexpr IpAddr kVip = 0x0aff0001;
constexpr IpAddr kNat = 0x0a800001;
constexpr IpAddr kClient = 0xac100001;
constexpr IpAddr kTargetBase = 0x0a000100;
constexpr int kTargets = 3;

struct BalancerFixture : public ::testing::Test
{
    EventQueue eq;
    Wire fabric{eq, ticksFromUsec(5)};
    std::vector<Packet> toClient;
    /** Every packet the balancer forwarded to a target... */
    std::vector<Packet> toTarget;
    /** ...and that target's index. */
    std::vector<int> steered;
    std::unique_ptr<L4Balancer> lb;

    void
    build(L4Balancer::Policy policy, std::size_t max_flows = 64)
    {
        L4Balancer::Config cfg;
        cfg.vip = kVip;
        cfg.natIp = kNat;
        cfg.policy = policy;
        cfg.maxFlows = max_flows;
        lb = std::make_unique<L4Balancer>(eq, fabric, cfg);
        for (int m = 0; m < kTargets; ++m)
            lb->addTarget({{kTargetBase + static_cast<IpAddr>(m)}, 80});
        lb->attachHandlers();
        lb->start();
        fabric.attach(kClient, [this](const Packet &p) {
            toClient.push_back(p);
        });
        fabric.attachRange(kTargetBase, kTargetBase + kTargets - 1,
                           [this](const Packet &p) {
                               toTarget.push_back(p);
                               steered.push_back(
                                   static_cast<int>(p.tuple.daddr -
                                                    kTargetBase));
                           });
    }

    /** A client packet to the VIP from source port @p sport. */
    void
    fromClient(Port sport, std::uint8_t flags)
    {
        Packet p;
        p.tuple = FiveTuple{kClient, kVip, sport, 80};
        p.flags = flags;
        fabric.transmit(p, eq.now());
        eq.runAll();
    }

    void syn(Port sport) { fromClient(sport, kSyn); }

    /** The server's reply along the flow of forwarded packet @p fwd. */
    void
    fromServer(const Packet &fwd, std::uint8_t flags)
    {
        Packet p;
        p.tuple = fwd.tuple.reversed();
        p.flags = flags;
        fabric.transmit(p, eq.now());
        eq.runAll();
    }

    int
    rstsToClient() const
    {
        int n = 0;
        for (const Packet &p : toClient)
            n += p.has(kRst) ? 1 : 0;
        return n;
    }
};

TEST(BalancerPolicy, NamesRoundTrip)
{
    for (L4Balancer::Policy p : {L4Balancer::Policy::kConsistentHash,
                                 L4Balancer::Policy::kRoundRobin}) {
        L4Balancer::Policy back{};
        ASSERT_TRUE(L4Balancer::policyFromName(L4Balancer::policyName(p),
                                               back));
        EXPECT_EQ(back, p);
    }
    L4Balancer::Policy out = L4Balancer::Policy::kConsistentHash;
    EXPECT_FALSE(L4Balancer::policyFromName("random", out));
}

TEST_F(BalancerFixture, RoundRobinRotatesOverHealthyTargets)
{
    build(L4Balancer::Policy::kRoundRobin);
    for (Port sp = 1000; sp < 1006; ++sp)
        syn(sp);
    EXPECT_EQ(steered, (std::vector<int>{0, 1, 2, 0, 1, 2}));

    // A stopped target drops out of the rotation; the cursor goes on
    // from where it stood.
    steered.clear();
    lb->noteStopped(1);
    for (Port sp = 2000; sp < 2004; ++sp)
        syn(sp);
    EXPECT_EQ(steered, (std::vector<int>{0, 2, 0, 2}));
    EXPECT_EQ(rstsToClient(), 0);
}

TEST_F(BalancerFixture, FullFlowTableResetsTheSyn)
{
    build(L4Balancer::Policy::kConsistentHash, /*max_flows=*/2);
    for (Port sp = 1000; sp < 1003; ++sp)
        syn(sp);
    EXPECT_EQ(steered.size(), 2u);
    EXPECT_EQ(lb->flowsActive(), 2u);
    EXPECT_EQ(lb->shedCapacity(), 1u);
    ASSERT_EQ(rstsToClient(), 1);
    EXPECT_EQ(toClient.back().tuple.dport, 1002) << "the refused SYN";
}

TEST_F(BalancerFixture, NoHealthyTargetResetsTheSyn)
{
    build(L4Balancer::Policy::kRoundRobin);
    for (int m = 0; m < kTargets; ++m)
        lb->noteStopped(m);
    syn(1000);
    EXPECT_TRUE(steered.empty());
    EXPECT_EQ(lb->flowsActive(), 0u);
    EXPECT_EQ(lb->shedNoBackend(), 1u);
    EXPECT_EQ(rstsToClient(), 1);
}

TEST_F(BalancerFixture, FlowRetiresOnClientRstOrFinalAck)
{
    build(L4Balancer::Policy::kConsistentHash);
    syn(1000);
    syn(1001);
    ASSERT_EQ(toTarget.size(), 2u);
    const Packet a = toTarget[0];
    const Packet b = toTarget[1];

    // The client aborts flow a: forwarded, then retired.
    fromClient(1000, kRst);
    EXPECT_EQ(toTarget.back().flags, kRst);
    EXPECT_EQ(lb->flowsRetired(), 1u);

    // Flow b closes client-first: FIN, the server's FIN, the last ACK.
    fromClient(1001, kFin | kAck);
    fromServer(b, kFin | kAck);
    EXPECT_EQ(lb->flowsActive(), 1u) << "waits for the final ACK";
    fromClient(1001, kAck);
    EXPECT_EQ(lb->flowsRetired(), 2u);
    EXPECT_EQ(lb->flowsActive(), 0u);
    EXPECT_EQ(lb->flowsCreated(), 2u);

    // A late server segment of a retired flow dies silently.
    const std::size_t heard = toClient.size();
    fromServer(a, kAck);
    EXPECT_EQ(toClient.size(), heard);
}

TEST_F(BalancerFixture, DrainStartsOnce)
{
    build(L4Balancer::Policy::kRoundRobin);
    lb->startDrain(0);
    lb->startDrain(0);
    EXPECT_EQ(lb->drainsStarted(), 1u);
    for (Port sp = 1000; sp < 1004; ++sp)
        syn(sp);
    EXPECT_EQ(steered, (std::vector<int>{1, 2, 1, 2}));
}

TEST_F(BalancerFixture, DownBalancerIsSilent)
{
    build(L4Balancer::Policy::kRoundRobin);
    syn(1000);
    ASSERT_EQ(toTarget.size(), 1u);
    lb->setDown(true);
    syn(1001);
    fromClient(1000, kAck);
    fromServer(toTarget[0], kAck);
    EXPECT_EQ(toTarget.size(), 1u) << "nothing forwarded to a target";
    EXPECT_TRUE(toClient.empty()) << "nothing forwarded, no RST";
    EXPECT_EQ(lb->flowsCreated(), 1u);
}

} // anonymous namespace
} // namespace fsim
