/**
 * @file
 * End-to-end application tests: WebServer and Proxy under a real closed
 * loop, checking the paper's core invariants — conservation, complete
 * connection locality, full partition (zero contention), and no leaks.
 */

#include <gtest/gtest.h>

#include "app/proxy.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

ExperimentConfig
smallConfig(AppKind app, const KernelConfig &kc, int cores)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.machine.cores = cores;
    cfg.machine.kernel = kc;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.03;
    cfg.backendCount = 4;
    return cfg;
}

struct Flavor
{
    const char *name;
    KernelConfig kc;
};

class AppsAllFlavors : public ::testing::TestWithParam<int>
{
  public:
    static KernelConfig
    flavor()
    {
        switch (GetParam()) {
          case 0:
            return KernelConfig::base2632();
          case 1:
            return KernelConfig::linux313();
          default:
            return KernelConfig::fastsocket();
        }
    }
};

TEST_P(AppsAllFlavors, WebServerServesAndConserves)
{
    Testbed bed(smallConfig(AppKind::kNginx, flavor(), 2));
    ExperimentResult r = bed.run();
    EXPECT_GT(r.cps, 1000.0);
    EXPECT_GT(r.served, 100u);
    EXPECT_EQ(bed.load().failed(), 0u);
    // Conservation: every started connection is accounted for.
    EXPECT_EQ(bed.load().started(),
              bed.load().completed() + bed.load().failed() +
                  bed.load().inFlight());
}

TEST_P(AppsAllFlavors, ProxyRelaysThroughBackends)
{
    Testbed bed(smallConfig(AppKind::kHaproxy, flavor(), 2));
    ExperimentResult r = bed.run();
    EXPECT_GT(r.cps, 1000.0);
    EXPECT_GT(r.served, 100u);
    EXPECT_EQ(bed.load().failed(), 0u);
    EXPECT_GT(bed.backends()->requestsServed(), 100u);
    auto *proxy = dynamic_cast<Proxy *>(&bed.app());
    ASSERT_NE(proxy, nullptr);
    EXPECT_EQ(proxy->connectFailures(), 0u);
}

TEST_P(AppsAllFlavors, DrainLeavesNoConnectionSockets)
{
    Testbed bed(smallConfig(AppKind::kNginx, flavor(), 2));
    bed.startLoad();
    bed.eventQueue().runUntil(ticksFromSeconds(0.03));
    bed.load().stopOpenLoop();
    // Closed loop: completed connections relaunch; to drain, simply stop
    // processing new packets after the in-flight ones finish by running
    // a grace period and checking the socket census shrinks back to the
    // steady-state population (listeners + in-flight + TIME_WAIT).
    std::size_t during = bed.machine().kernel().liveSockets();
    EXPECT_GT(during, 0u);
    EXPECT_LT(during, 4096u) << "no unbounded socket growth";
}

INSTANTIATE_TEST_SUITE_P(Flavors, AppsAllFlavors,
                         ::testing::Values(0, 1, 2));

TEST(FastsocketInvariants, FullPartitionMeansZeroContention)
{
    // Paper claim: with V+L+R+E, no lock is ever contended (Table 1's
    // Fastsocket column is all zeros, modulo the 8 stray base.lock hits).
    Testbed bed(smallConfig(AppKind::kNginx, KernelConfig::fastsocket(),
                            4));
    ExperimentResult r = bed.run();
    ASSERT_GT(r.served, 100u);
    for (const auto &kv : r.locks) {
        EXPECT_EQ(kv.second.contentions, 0u)
            << kv.first << " contended under full Fastsocket";
    }
}

TEST(FastsocketInvariants, CompleteConnectionLocality)
{
    Testbed bed(smallConfig(AppKind::kHaproxy,
                            KernelConfig::fastsocket(), 4));
    bed.startLoad();
    bed.eventQueue().runUntil(ticksFromSeconds(0.03));
    EXPECT_GT(bed.app().served(), 50u);
    // Every connection socket — passive *and* active — must only ever
    // have been touched by a single core (paper section 3.3).
    int checked = 0;
    for (const Socket *s : bed.machine().kernel().allSockets()) {
        if (s->kind != SockKind::kConnection)
            continue;
        EXPECT_LE(s->touchedCount(), 1)
            << "socket " << s->id << " crossed cores (passive="
            << s->passive << ")";
        ++checked;
    }
    EXPECT_GT(checked, 50);
}

TEST(BaselineBehavior, BaseKernelContendssomewhere)
{
    Testbed bed(smallConfig(AppKind::kNginx, KernelConfig::base2632(),
                            4));
    ExperimentResult r = bed.run();
    std::uint64_t total = 0;
    for (const auto &kv : r.locks)
        total += kv.second.contentions;
    EXPECT_GT(total, 0u) << "shared-everything kernel must contend";
}

TEST(BaselineBehavior, VfsLocksOnlyInLegacyModes)
{
    Testbed base(smallConfig(AppKind::kNginx, KernelConfig::base2632(),
                             2));
    ExperimentResult rb = base.run();
    EXPECT_GT(rb.locks.at("dcache_lock").acquisitions, 0u);

    Testbed fast(smallConfig(AppKind::kNginx, KernelConfig::fastsocket(),
                             2));
    ExperimentResult rf = fast.run();
    EXPECT_EQ(rf.locks.at("dcache_lock").acquisitions, 0u);
    EXPECT_EQ(rf.locks.at("inode_lock").acquisitions, 0u);
}

TEST(ProxyBehavior, ActiveConnectionsUseEphemeralPorts)
{
    Testbed bed(smallConfig(AppKind::kHaproxy,
                            KernelConfig::fastsocket(), 2));
    bed.startLoad();
    bed.eventQueue().runUntil(ticksFromSeconds(0.02));
    EXPECT_GT(bed.machine().kernel().stats().activeConns, 20u);
}

TEST(ProxyBehavior, RfdSteersActiveIncomingUnderRss)
{
    Testbed bed(smallConfig(AppKind::kHaproxy,
                            KernelConfig::fastsocket(), 4));
    ExperimentResult r = bed.run();
    // With plain RSS the replies land on random cores, so RFD must have
    // software-steered most active incoming packets.
    EXPECT_GT(r.steeredPackets, 100u);
    // And the NIC-level local proportion stays around 1/cores.
    EXPECT_NEAR(r.localPktProportion, 0.25, 0.15);
}

TEST(ProxyBehavior, FdirPerfectGivesFullLocality)
{
    ExperimentConfig cfg = smallConfig(AppKind::kHaproxy,
                                       KernelConfig::fastsocket(), 4);
    cfg.machine.nic.fdirPerfect = true;
    cfg.machine.nic.perfectPortMask = ReceiveFlowDeliver::hashMask(4);
    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.localPktProportion, 0.999)
        << "Perfect-Filtering + RFD ports -> 100% local (Figure 5(b))";
    EXPECT_EQ(r.steeredPackets, 0u)
        << "nothing left for software steering";
}

TEST(ProxyBehavior, FdirAtrImprovesLocalityBestEffort)
{
    ExperimentConfig cfg = smallConfig(AppKind::kHaproxy,
                                       KernelConfig::fastsocket(), 4);
    cfg.machine.nic.fdirAtr = true;
    cfg.machine.nic.atrSampleRate = 4;   // short run: sample densely
    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.localPktProportion, 0.4)
        << "ATR sampling should beat RSS's 1/cores";
    EXPECT_LT(r.localPktProportion, 1.0)
        << "ATR is best-effort, not a complete solution";
}

TEST(Scheduling, UtilizationNeverExceedsOneMuch)
{
    Testbed bed(smallConfig(AppKind::kNginx, KernelConfig::fastsocket(),
                            4));
    ExperimentResult r = bed.run();
    for (double u : r.coreUtil)
        EXPECT_LE(u, 1.10) << "window-boundary overhang only";
}

/**
 * One proxy process driven by hand-made client and backend packets, for
 * the session endings a closed-loop client never produces.
 */
struct ProxyFixture : public ::testing::Test
{
    static constexpr IpAddr kClient = 0xac100001;
    static constexpr IpAddr kBackend = 0x0a010001;
    EventQueue eq;
    Wire wire{eq, ticksFromUsec(10)};
    std::unique_ptr<Machine> m;
    std::unique_ptr<Proxy> proxy;
    std::vector<Packet> toClient;
    std::vector<Packet> toBackend;
    /** The backend's answer to a SYN (RST|ACK: refused). */
    std::uint8_t synReply = kSyn | kAck;
    /** The backend's data-less answer to a request (0: silence). */
    std::uint8_t backendReply = 0;
    FiveTuple client;

    void
    SetUp() override
    {
        MachineConfig mc;
        mc.cores = 1;
        mc.listenIps = 1;
        m = std::make_unique<Machine>(eq, wire, mc);
        proxy = std::make_unique<Proxy>(*m, std::vector<IpAddr>{kBackend});
        proxy->start();
        wire.attach(kClient, [this](const Packet &p) {
            toClient.push_back(p);
        });
        wire.attach(kBackend, [this](const Packet &p) {
            toBackend.push_back(p);
            Packet r;
            r.tuple = p.tuple.reversed();
            if (p.has(kSyn)) {
                r.flags = synReply;
            } else if (p.payload > 0 && backendReply != 0) {
                r.flags = backendReply;
            } else {
                return;
            }
            wire.transmit(r, eq.now());
        });
        client = FiveTuple{kClient, m->addrs()[0], 40000, 80};
        fromClient(kSyn);
        fromClient(kAck);
    }

    void
    fromClient(std::uint8_t flags, std::uint32_t payload = 0)
    {
        Packet p;
        p.tuple = client;
        p.flags = flags;
        p.payload = payload;
        wire.transmit(p, eq.now());
        eq.runAll();
    }

    bool
    clientGot(std::uint8_t flag, bool with_data) const
    {
        for (const Packet &p : toClient)
            if (p.has(static_cast<TcpFlag>(flag)) &&
                (p.payload > 0) == with_data)
                return true;
        return false;
    }

    /** Only the listen socket's file is left: no session leaked. */
    void
    expectNoLeak()
    {
        EXPECT_EQ(m->kernel().vfs().liveFiles(), 1u);
    }
};

TEST_F(ProxyFixture, ClientHangingUpBeforeTheRequestEndsTheSession)
{
    fromClient(kFin | kAck);
    EXPECT_TRUE(clientGot(kFin, /*with_data=*/false));
    EXPECT_TRUE(toBackend.empty()) << "no backend was picked";
    expectNoLeak();
}

TEST_F(ProxyFixture, BackendClosingWithoutResponseEndsTheSession)
{
    backendReply = kFin | kAck;
    fromClient(kAck | kPsh, 100);
    ASSERT_GE(toBackend.size(), 2u) << "SYN and the request";
    EXPECT_EQ(proxy->served(), 0u);
    EXPECT_FALSE(clientGot(kPsh, /*with_data=*/true));
    EXPECT_TRUE(clientGot(kFin, /*with_data=*/false));
    expectNoLeak();
}

TEST_F(ProxyFixture, SessionEndedByOneFdSkipsTheOtherInTheSameRound)
{
    // The response and the client's hang-up land in one epoll round:
    // whichever fd runs first closes the session, and the other finds
    // its socket gone.
    fromClient(kAck | kPsh, 100);
    ASSERT_EQ(toBackend.size(), 2u) << "SYN and the request";
    Packet response;
    response.tuple = toBackend.back().tuple.reversed();
    response.flags = kAck | kPsh | kFin;
    response.payload = 64;
    Packet fin;
    fin.tuple = client;
    fin.flags = kFin | kAck;
    wire.transmit(response, eq.now());
    wire.transmit(fin, eq.now());
    eq.runAll();
    EXPECT_TRUE(clientGot(kFin, /*with_data=*/false));
    expectNoLeak();
}

TEST_F(ProxyFixture, RefusingBackendIsRetriedThenFails)
{
    // Every connect is refused. The refused fd stays open until its
    // attempt's timeout closes it; the first attempt and both retries
    // fail, and the session fails with nothing leaked.
    synReply = kRst | kAck;
    proxy->setBackendTimeout(ticksFromUsec(500));
    fromClient(kAck | kPsh, 100);
    std::size_t syns = 0;
    for (const Packet &p : toBackend)
        syns += p.has(kSyn);
    EXPECT_EQ(syns, 3u);
    EXPECT_EQ(proxy->backendTimeouts(), 3u);
    EXPECT_EQ(proxy->backendRetries(), 2u);
    EXPECT_EQ(proxy->sessionFailures(), 1u);
    EXPECT_EQ(proxy->served(), 0u);
    EXPECT_TRUE(clientGot(kFin, /*with_data=*/false));
    expectNoLeak();
}

TEST_F(ProxyFixture, RefusedBackendFailsOverWithoutTimeout)
{
    // No timeout is armed, so the refusal itself fails each attempt:
    // the first connect and both retries are refused, and the session
    // fails instead of stranding the client with the refused fd open.
    synReply = kRst | kAck;
    fromClient(kAck | kPsh, 100);
    std::size_t syns = 0;
    for (const Packet &p : toBackend)
        syns += p.has(kSyn);
    EXPECT_EQ(syns, 3u);
    EXPECT_EQ(proxy->backendTimeouts(), 0u);
    EXPECT_EQ(proxy->backendRetries(), 2u);
    EXPECT_EQ(proxy->sessionFailures(), 1u);
    EXPECT_EQ(proxy->served(), 0u);
    EXPECT_TRUE(clientGot(kFin, /*with_data=*/false));
    expectNoLeak();
}

TEST_F(ProxyFixture, KilledProxyIgnoresItsArmedBackendTimeout)
{
    // The exit closes both fds of a session whose backend timeout is
    // still armed; the timeout must not close them a second time.
    proxy->setBackendTimeout(ticksFromMsec(1));
    Packet request;
    request.tuple = client;
    request.flags = kAck | kPsh;
    request.payload = 100;
    wire.transmit(request, eq.now());
    eq.runUntil(eq.now() + ticksFromUsec(200));
    ASSERT_EQ(toBackend.size(), 2u) << "SYN and the request";
    m->kernel().killProcess(0);
    eq.runAll();
    EXPECT_EQ(m->kernel().vfs().liveFiles(), 0u);
    EXPECT_EQ(proxy->backendTimeouts(), 1u);
    EXPECT_EQ(proxy->backendRetries(), 0u);
}

} // anonymous namespace
} // namespace fsim
