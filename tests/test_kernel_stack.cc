/**
 * @file
 * Integration tests for the simulated kernel stack driven by hand-crafted
 * packets: handshakes, data, teardown, robustness slow path, RFD ports,
 * reuseport clones, backlog overflow, SYN cookies, and a process killed
 * mid-run under live traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "app/machine.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

constexpr IpAddr kClientIp = 0xac100001;
constexpr IpAddr kBackendIp = 0x0a010001;

struct KernelFixture : public ::testing::Test
{
    EventQueue eq;
    Wire wire{eq, ticksFromUsec(10)};
    std::unique_ptr<Machine> m;
    std::vector<Packet> clientRx;
    std::vector<Packet> backendRx;
    std::vector<int> readyProcs;
    /** Overload knobs of the next build() (disabled by default). */
    OverloadConfig overload;

    void
    build(const KernelConfig &kc, int cores = 2)
    {
        MachineConfig mc;
        mc.cores = cores;
        mc.kernel = kc;
        mc.listenIps = 1;
        mc.overload = overload;
        m = std::make_unique<Machine>(eq, wire, mc);
        wire.attachRange(kClientIp, kClientIp + 0xffff,
                         [this](const Packet &p) {
                             clientRx.push_back(p);
                         });
        wire.attachRange(kBackendIp, kBackendIp + 0xff,
                         [this](const Packet &p) {
                             backendRx.push_back(p);
                         });
        m->kernel().onProcessReady = [this](int p, bool) {
            readyProcs.push_back(p);
        };
    }

    IpAddr srv() const { return m->addrs()[0]; }

    void
    send(const FiveTuple &t, std::uint8_t flags, std::uint32_t payload = 0)
    {
        Packet p;
        p.tuple = t;
        p.flags = flags;
        p.payload = payload;
        wire.transmit(p, eq.now());
    }

    /** Client tuple whose RSS queue is @p queue. */
    FiveTuple
    tupleForQueue(int queue)
    {
        for (Port sp = 10000; sp < 60000; ++sp) {
            FiveTuple t{kClientIp, srv(), sp, 80};
            if (m->nic().rssQueue(t) == queue)
                return t;
        }
        ADD_FAILURE() << "no tuple found for queue " << queue;
        return FiveTuple{};
    }

    /** Run the three-way handshake for @p t (client side). */
    void
    handshake(const FiveTuple &t)
    {
        send(t, kSyn);
        eq.runAll();
        send(t, kAck);
        eq.runAll();
    }

    bool
    clientSaw(std::uint8_t flag)
    {
        for (const Packet &p : clientRx)
            if (p.has(static_cast<TcpFlag>(flag)))
                return true;
        return false;
    }
};

TEST_F(KernelFixture, PassiveHandshakeAndAccept)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);

    FiveTuple t = tupleForQueue(0);
    send(t, kSyn);
    eq.runAll();
    ASSERT_FALSE(clientRx.empty());
    EXPECT_TRUE(clientRx.back().has(kSyn));
    EXPECT_TRUE(clientRx.back().has(kAck));

    send(t, kAck);
    eq.runAll();
    EXPECT_FALSE(readyProcs.empty()) << "listener wake expected";

    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_GE(r.fd, 3);
    EXPECT_EQ(r.sock->state, TcpState::kEstablished);
    EXPECT_EQ(r.sock->ownerProcess, proc);
    EXPECT_TRUE(r.sock->passive);
    EXPECT_EQ(k.stats().acceptedConns, 1u);
}

TEST_F(KernelFixture, AcceptOnEmptyQueueReturnsNull)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    auto r = k.accept(proc, 0, lfd);
    EXPECT_EQ(r.sock, nullptr);
    EXPECT_EQ(r.fd, -1);
}

TEST_F(KernelFixture, SynToUnboundPortGetsRst)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    k.listen(proc, srv(), 80);
    send(FiveTuple{kClientIp, srv(), 40000, 81}, kSyn);
    eq.runAll();
    EXPECT_TRUE(clientSaw(kRst));
    EXPECT_EQ(k.stats().rstSent, 1u);
}

TEST_F(KernelFixture, EarlyDataIsBufferedUntilRead)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    handshake(t);
    send(t, kAck | kPsh, 600);   // request races ahead of accept()
    eq.runAll();

    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_EQ(r.sock->rxPending, 600u);
    auto rd = k.read(proc, r.t, r.fd);
    EXPECT_EQ(rd.bytes, 600u);
    EXPECT_FALSE(rd.finSeen);
    auto rd2 = k.read(proc, rd.t, r.fd);
    EXPECT_EQ(rd2.bytes, 0u);
}

TEST_F(KernelFixture, PassiveCloseLifecycle)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    handshake(t);
    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    std::size_t baseline = k.liveSockets();

    send(t, kFin | kAck);   // client closes first
    eq.runAll();
    EXPECT_EQ(r.sock->state, TcpState::kCloseWait);
    auto rd = k.read(proc, eq.now(), r.fd);
    EXPECT_TRUE(rd.finSeen);

    k.close(proc, eq.now(), r.fd);
    EXPECT_EQ(r.sock->state, TcpState::kLastAck);
    eq.runAll();
    EXPECT_TRUE(clientSaw(kFin));

    send(t, kAck);          // final ACK
    eq.runAll();
    EXPECT_EQ(k.liveSockets(), baseline - 1);
    EXPECT_EQ(k.stats().socketsDestroyed, 1u);
}

TEST_F(KernelFixture, ActiveCloseEntersTimeWaitAndReaps)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    handshake(t);
    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);

    k.write(proc, eq.now(), r.fd, 64);
    k.close(proc, eq.now(), r.fd);   // server closes first
    EXPECT_EQ(r.sock->state, TcpState::kFinWait1);
    eq.runAll();

    send(t, kAck | kFin);   // client ACKs our FIN and sends its own
    // Run only a couple of jiffies: running to quiescence would already
    // fire the 2*MSL reaper and free the socket.
    eq.runUntil(eq.now() + ticksFromMsec(2));
    EXPECT_EQ(r.sock->state, TcpState::kTimeWait);

    // The 2*MSL reaper fires within 20 jiffies.
    eq.runAll();
    EXPECT_EQ(k.stats().timeWaitReaped, 1u);
}

TEST_F(KernelFixture, BacklogOverflowRejectsWithRst)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    Socket *lsock = k.sockFromFd(proc, lfd);
    lsock->backlog = 2;

    for (Port sp = 20000; sp < 20005; ++sp) {
        FiveTuple t{kClientIp, srv(), sp, 80};
        handshake(t);
    }
    EXPECT_EQ(k.stats().acceptOverflows, 3u);
    EXPECT_TRUE(clientSaw(kRst));
    EXPECT_EQ(lsock->acceptQueue.size(), 2u);
}

TEST_F(KernelFixture, ActiveConnectHandshake)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(1);
    k.listen(proc, srv(), 80);   // provides the outbound address

    auto c = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(c.sock, nullptr);
    EXPECT_FALSE(c.sock->passive);
    EXPECT_EQ(c.sock->state, TcpState::kSynSent);
    k.epollAdd(proc, c.t, c.fd);
    eq.runAll();
    ASSERT_FALSE(backendRx.empty());
    EXPECT_TRUE(backendRx.back().has(kSyn));

    // Backend answers SYN-ACK.
    Packet synack;
    synack.tuple = backendRx.back().tuple.reversed();
    synack.flags = kSyn | kAck;
    wire.transmit(synack, eq.now());
    eq.runAll();
    EXPECT_EQ(c.sock->state, TcpState::kEstablished);
    EXPECT_FALSE(readyProcs.empty()) << "connect completion wake";
    EXPECT_EQ(k.stats().activeConns, 1u);
}

TEST_F(KernelFixture, RefusedConnectStaysOpenUntilClose)
{
    // A peer refusing the connect (RST|ACK to the SYN) is ECONNREFUSED:
    // the socket turns CLOSED and wakes its owner, but its fd still
    // names it, so only the owner's close() frees it, exactly once.
    KernelConfig kc = KernelConfig::base2632();
    kc.ephemeralPortLo = 40000;   // two ports
    kc.ephemeralPortHi = 40001;
    build(kc);
    KernelStack &k = m->kernel();
    int proc = k.addProcess(1);
    k.listen(proc, srv(), 80);   // the outbound address

    auto c = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(c.sock, nullptr);
    const Port port = c.sock->rxTuple.dport;
    k.epollAdd(proc, c.t, c.fd);
    eq.runAll();
    send(c.sock->rxTuple, kRst | kAck);
    eq.runAll();
    EXPECT_TRUE(k.process(proc).epoll->hasReady()) << "refusal wake";
    EXPECT_FALSE(readyProcs.empty());
    ASSERT_EQ(k.sockFromFd(proc, c.fd), c.sock);
    EXPECT_EQ(c.sock->state, TcpState::kClosed);
    ASSERT_NE(k.connect(proc, eq.now(), kBackendIp, 80).sock, nullptr);
    EXPECT_EQ(k.connect(proc, eq.now(), kBackendIp, 80).sock, nullptr)
        << "the refused socket still holds its port";

    const std::uint64_t destroyed = k.stats().socketsDestroyed;
    k.close(proc, eq.now(), c.fd);
    EXPECT_EQ(k.stats().socketsDestroyed, destroyed + 1);
    EXPECT_EQ(k.liveSockets(), 2u);   // the listener and the other one
    EXPECT_EQ(k.sockFromFd(proc, c.fd), nullptr);
    auto again = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(again.sock, nullptr);
    EXPECT_EQ(again.sock->rxTuple.dport, port);
}

TEST_F(KernelFixture, EmbryonicCloseRecordsTeardownBeforeTraceRetires)
{
    // close() in SYN_SENT destroys the TCB inside the syscall. The
    // teardown span must still reach the trace, ending where the
    // destruction began, before the trace is retired at its end.
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(1);
    k.listen(proc, srv(), 80);

    auto c = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(c.sock, nullptr);
    ASSERT_EQ(c.sock->state, TcpState::kSynSent);
    const std::uint64_t id = c.sock->id;
    const Tick end = k.close(proc, c.t, c.fd);
    EXPECT_EQ(k.liveSockets(), 1u);   // only the listener is left

    const auto &log = m->tracer().connSpans();
    ASSERT_EQ(log.completedCount(), 1u);
    const ConnSpanTrace &tr = log.completed().front();
    EXPECT_EQ(tr.connId, id);
    EXPECT_TRUE(tr.closed);
    EXPECT_EQ(tr.closeTick, end);
    const ConnSpan *teardown = nullptr;
    int vfs = 0;
    for (const ConnSpan &sp : tr.spans) {
        if (sp.stage == ConnStage::kTeardown)
            teardown = &sp;
        vfs += sp.stage == ConnStage::kVfs;
    }
    ASSERT_NE(teardown, nullptr);
    EXPECT_EQ(teardown->begin, c.t);
    // The port release under the bind lock follows the stage's end.
    EXPECT_LT(teardown->end, end);
    EXPECT_EQ(vfs, 2);   // socket-file alloc in connect(), free in close()
}

/**
 * Property over RFD machines of several sizes: every connect() from
 * every core picks a source port that ReceiveFlowDeliver hashes back to
 * that core, and no two live connections to one backend share a port.
 */
class RfdConnect : public KernelFixture,
                   public ::testing::WithParamInterface<int>
{
  protected:
    static constexpr int kConnsPerCore = 64;

    void
    connectFromEveryCore(bool random_bits)
    {
        const int cores = GetParam();
        KernelConfig kc = KernelConfig::fastsocket();
        kc.rfdRandomBits = random_bits;
        build(kc, cores);
        KernelStack &k = m->kernel();
        const ReceiveFlowDeliver &rfd = *k.rfd();
        std::set<Port> live[2];   // per backend
        for (CoreId core = 0; core < cores; ++core) {
            const int proc = k.addProcess(core);
            if (core == 0)
                k.listen(proc, srv(), 80);   // the outbound address
            for (int i = 0; i < kConnsPerCore; ++i) {
                const int b = i % 2;
                auto c = k.connect(proc, eq.now(), kBackendIp + b, 80);
                ASSERT_NE(c.sock, nullptr);
                const Port psrc = c.sock->rxTuple.dport;
                EXPECT_EQ(rfd.hash(psrc), core)
                    << "RFD: hash(psrc) must be the initiating core";
                EXPECT_GT(psrc, kWellKnownPortMax);
                EXPECT_TRUE(live[b].insert(psrc).second)
                    << "port " << psrc << " shared by two live "
                    << "connections to backend " << b;
            }
        }
    }
};

TEST_P(RfdConnect, DefaultBitsHashToCore)
{
    connectFromEveryCore(/*random_bits=*/false);
}

TEST_P(RfdConnect, RandomBitsHashToCore)
{
    connectFromEveryCore(/*random_bits=*/true);
}

INSTANTIATE_TEST_SUITE_P(Cores, RfdConnect,
                         ::testing::Values(1, 2, 8, 12, 24));

TEST_F(KernelFixture, RfdConnectExhaustsOnlyItsCoresPorts)
{
    // 32 cores: 2048 RFD candidates per core, 32 of them well-known.
    build(KernelConfig::fastsocket(), 32);
    KernelStack &k = m->kernel();
    const ReceiveFlowDeliver &rfd = *k.rfd();
    const int p0 = k.addProcess(0);
    const int p1 = k.addProcess(1);
    k.listen(p0, srv(), 80);
    std::uint32_t usable = 0;
    for (std::uint32_t i = 0; i < rfd.candidateCount(); ++i)
        usable += rfd.portCandidate(0, i) > kWellKnownPortMax;

    std::vector<KernelStack::ConnectResult> conns;
    for (std::uint32_t i = 0; i < usable; ++i) {
        conns.push_back(k.connect(p0, eq.now(), kBackendIp, 80));
        ASSERT_NE(conns.back().sock, nullptr)
            << "connect " << i << " of " << usable;
    }
    // Every candidate of core 0 is held: EADDRNOTAVAIL, counted.
    EXPECT_EQ(k.connect(p0, eq.now(), kBackendIp, 80).sock, nullptr);
    EXPECT_EQ(k.stats().portAllocFailures, 1u);
    // Other cores, and other backends, are unaffected.
    EXPECT_NE(k.connect(p1, eq.now(), kBackendIp, 80).sock, nullptr);
    EXPECT_NE(k.connect(p0, eq.now(), kBackendIp + 1, 80).sock, nullptr);

    // Closing one frees its port, and the candidate walk wraps to it.
    const KernelStack::ConnectResult &mid = conns[usable / 2];
    const Port freed = mid.sock->rxTuple.dport;
    k.close(p0, eq.now(), mid.fd);
    auto again = k.connect(p0, eq.now(), kBackendIp, 80);
    ASSERT_NE(again.sock, nullptr);
    EXPECT_EQ(again.sock->rxTuple.dport, freed);
}

TEST_F(KernelFixture, SlowPathSurvivesProcessCrash)
{
    // Paper 3.2.1: kill the process whose core receives a SYN; the
    // connection must still be served via the global listen socket
    // instead of being reset.
    build(KernelConfig::fastsocket(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int p1 = k.addProcess(1);
    int lfd0 = k.listen(p0, srv(), 80);
    (void)lfd0;
    int lfd1 = k.listen(p1, srv(), 80);
    k.localListen(p0, srv(), 80);
    k.localListen(p1, srv(), 80);

    k.killProcess(p0);
    eq.runAll();   // the exit task closes p0's listen fd

    FiveTuple t = tupleForQueue(0);   // lands on the dead process's core
    send(t, kSyn);
    eq.runAll();
    EXPECT_FALSE(clientSaw(kRst)) << "robustness: no reset";
    ASSERT_TRUE(clientSaw(kSyn));

    send(t, kAck);
    eq.runAll();

    // The surviving process accepts it -- global queue is checked first.
    auto r = k.accept(p1, eq.now(), lfd1);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_EQ(k.stats().slowPathAccepts, 1u);
    EXPECT_EQ(r.sock->state, TcpState::kEstablished);
}

TEST_F(KernelFixture, FastPathUsesLocalTableWhenHealthy)
{
    build(KernelConfig::fastsocket(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int p1 = k.addProcess(1);
    int lfd0 = k.listen(p0, srv(), 80);
    k.listen(p1, srv(), 80);
    k.localListen(p0, srv(), 80);
    k.localListen(p1, srv(), 80);

    FiveTuple t = tupleForQueue(0);
    handshake(t);
    auto r = k.accept(p0, eq.now(), lfd0);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_EQ(k.stats().slowPathAccepts, 0u);
    // Passive locality: everything happened on core 0.
    EXPECT_EQ(r.sock->touchedCount(), 1);
    EXPECT_EQ(r.sock->ownerCore, 0);
}

TEST_F(KernelFixture, ReuseportCreatesPerProcessClones)
{
    build(KernelConfig::linux313(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int p1 = k.addProcess(1);
    k.listen(p0, srv(), 80);
    k.listen(p1, srv(), 80);

    FiveTuple t = tupleForQueue(0);
    handshake(t);
    // The connection sits in exactly one clone's queue.
    Socket *l0 = k.sockFromFd(p0, 3);
    Socket *l1 = k.sockFromFd(p1, 3);
    EXPECT_EQ(l0->acceptQueue.size() + l1->acceptQueue.size(), 1u);
    EXPECT_NE(l0, l1);
}

TEST_F(KernelFixture, FdsAreReusedAfterClose)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t1 = tupleForQueue(0);
    handshake(t1);
    auto r1 = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r1.sock, nullptr);
    int fd1 = r1.fd;
    k.close(proc, eq.now(), fd1);

    FiveTuple t2{kClientIp, srv(), static_cast<Port>(t1.sport + 1), 80};
    handshake(t2);
    auto r2 = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r2.sock, nullptr);
    EXPECT_EQ(r2.fd, fd1) << "lowest-fd rule";
}

TEST_F(KernelFixture, NetstatListsListenersAndConnections)
{
    build(KernelConfig::fastsocket(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    k.listen(p0, srv(), 80);
    k.localListen(p0, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    handshake(t);

    bool saw_listen = false;
    bool saw_estab = false;
    for (const std::string &row : k.netstat()) {
        if (row.find("LISTEN") != std::string::npos)
            saw_listen = true;
        if (row.find("ESTABLISHED") != std::string::npos)
            saw_estab = true;
    }
    EXPECT_TRUE(saw_listen);
    EXPECT_TRUE(saw_estab);
}

TEST_F(KernelFixture, DataWakesOwnerViaEpoll)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    handshake(t);
    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    k.epollAdd(proc, r.t, r.fd);
    readyProcs.clear();

    send(t, kAck | kPsh, 600);
    eq.runAll();
    EXPECT_FALSE(readyProcs.empty());
    std::vector<int> fds;
    k.epollWait(proc, eq.now(), fds);
    EXPECT_NE(std::find(fds.begin(), fds.end(), r.fd), fds.end());
}

TEST_F(KernelFixture, DuplicateSynIsReansweredNotDuplicated)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);

    FiveTuple t = tupleForQueue(0);
    send(t, kSyn);
    eq.runAll();
    std::uint64_t created = k.stats().socketsCreated;
    clientRx.clear();

    // Client retransmits the SYN (e.g. the SYN-ACK was lost): the kernel
    // must re-answer from the existing embryonic TCB, not mint a second.
    send(t, kSyn);
    eq.runAll();
    EXPECT_EQ(k.stats().synRetransmits, 1u);
    EXPECT_EQ(k.stats().socketsCreated, created);
    ASSERT_FALSE(clientRx.empty());
    EXPECT_TRUE(clientRx.back().has(kSyn));
    EXPECT_TRUE(clientRx.back().has(kAck));

    // The handshake still completes into exactly one accepted conn.
    send(t, kAck);
    eq.runAll();
    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_EQ(k.stats().acceptedConns, 1u);
}

TEST_F(KernelFixture, SynQueueFullWithoutCookiesDropsSilently)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.synBacklog = 0;   // every SYN sees a "full" queue
    build(kc);
    KernelStack &k = m->kernel();
    k.listen(k.addProcess(0), srv(), 80);

    send(tupleForQueue(0), kSyn);
    eq.runAll();
    EXPECT_EQ(k.stats().synDropped, 1u);
    EXPECT_TRUE(clientRx.empty()) << "drop is silent: no SYN-ACK, no RST";
}

TEST_F(KernelFixture, SynCookieHandshakeEndToEnd)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.synBacklog = 0;   // force the stateless path
    kc.synCookies = true;
    build(kc);
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);

    FiveTuple t = tupleForQueue(0);
    std::uint64_t created = k.stats().socketsCreated;
    send(t, kSyn);
    eq.runAll();
    EXPECT_EQ(k.stats().synCookiesSent, 1u);
    EXPECT_EQ(k.stats().socketsCreated, created) << "stateless SYN-ACK";
    ASSERT_FALSE(clientRx.empty());
    const Packet &synack = clientRx.back();
    ASSERT_TRUE(synack.has(kSyn));
    ASSERT_NE(synack.cookie, 0u);

    // ACK echoing the cookie mints the established TCB on the spot.
    Packet ack;
    ack.tuple = t;
    ack.flags = kAck;
    ack.cookie = synack.cookie;
    wire.transmit(ack, eq.now());
    eq.runAll();
    EXPECT_EQ(k.stats().synCookiesValidated, 1u);

    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_EQ(r.sock->state, TcpState::kEstablished);
}

TEST_F(KernelFixture, BadCookieAckIsReset)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.synBacklog = 0;
    kc.synCookies = true;
    build(kc);
    KernelStack &k = m->kernel();
    k.listen(k.addProcess(0), srv(), 80);

    Packet ack;
    ack.tuple = tupleForQueue(0);
    ack.flags = kAck;
    ack.cookie = 0xdeadbeef | 1u;   // forged: does not match the flow
    wire.transmit(ack, eq.now());
    eq.runAll();
    EXPECT_EQ(k.stats().synCookiesValidated, 0u);
    EXPECT_TRUE(clientSaw(kRst));
}

TEST_F(KernelFixture, EmbryonicTcbIsReapedAfterSynRcvdTimeout)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.synRcvdJiffies = 300;
    build(kc);
    KernelStack &k = m->kernel();
    k.listen(k.addProcess(0), srv(), 80);

    FiveTuple t = tupleForQueue(0);
    send(t, kSyn);
    eq.runAll();   // drains past the embryonic timeout: TCB reaped
    EXPECT_EQ(k.stats().synRcvdReaped, 1u);

    // The late final ACK finds no connection and is refused.
    clientRx.clear();
    send(t, kAck);
    eq.runAll();
    EXPECT_TRUE(clientSaw(kRst));
    EXPECT_EQ(k.stats().acceptedConns, 0u);
}

TEST_F(KernelFixture, SlowPathWithNoLiveProcessQueuesWithoutWaking)
{
    // Every process serving the port is dead: a connection still lands
    // on the global listener's queue, but there is nobody to wake.
    build(KernelConfig::fastsocket(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int lfd = k.listen(p0, srv(), 80);
    k.localListen(p0, srv(), 80);
    k.killProcess(p0);
    handshake(tupleForQueue(0));
    EXPECT_EQ(k.sockFromFd(p0, lfd), nullptr) << "exit closed the fd";
    EXPECT_FALSE(clientSaw(kRst));
    std::size_t queued = 0;
    for (const Socket *s : k.allSockets())
        if (s->kind == SockKind::kListen)
            queued += s->acceptQueue.size();
    EXPECT_EQ(queued, 1u);
    EXPECT_FALSE(k.process(p0).epoll->hasReady());
    EXPECT_TRUE(readyProcs.empty());
}

TEST_F(KernelFixture, KilledProcessLeavesASharedListenerToItsPeers)
{
    // Stock kernel: both processes watch one global listener. The dead
    // one's exit drops only its own watcher; the listener lives on.
    build(KernelConfig::base2632(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int p1 = k.addProcess(1);
    int lfd0 = k.listen(p0, srv(), 80);
    int lfd1 = k.listen(p1, srv(), 80);
    const Socket *shared = k.sockFromFd(p1, lfd1);
    ASSERT_EQ(k.sockFromFd(p0, lfd0), shared);
    k.killProcess(p0);
    eq.runAll();
    EXPECT_EQ(k.sockFromFd(p0, lfd0), nullptr);
    ASSERT_EQ(shared->watchers.size(), 1u);
    EXPECT_EQ(shared->watchers.front().first, p1);

    handshake(tupleForQueue(0));
    EXPECT_EQ(readyProcs, std::vector<int>{p1});
    EXPECT_NE(k.accept(p1, eq.now(), lfd1).sock, nullptr);
}

TEST_F(KernelFixture, HandshakeAckCarryingTheRequestIsServed)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    send(t, kSyn);
    eq.runAll();
    send(t, kAck | kConnClose, 120);   // the request rides the final ACK
    eq.runAll();
    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    auto rd = k.read(proc, eq.now(), r.fd);
    EXPECT_EQ(rd.bytes, 120u);
    EXPECT_TRUE(rd.connClose);
    k.close(proc, eq.now(), r.fd);
    EXPECT_EQ(k.sockFromFd(proc, r.fd), nullptr)
        << "a closed fd names no socket";
}

TEST_F(KernelFixture, EmptyWindowReadsIdle)
{
    build(KernelConfig::base2632(), 2);
    m->markWindow();
    EXPECT_EQ(m->utilizationSinceMark(), std::vector<double>(2, 0.0));
}

TEST_F(KernelFixture, CookieAckAtFullAcceptQueueIsReset)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.synBacklog = 0;   // force the stateless path
    kc.synCookies = true;
    build(kc);
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    Socket *lsock = k.sockFromFd(proc, k.listen(proc, srv(), 80));
    lsock->backlog = 0;   // somaxconn exhausted

    FiveTuple t = tupleForQueue(0);
    send(t, kSyn);
    eq.runAll();
    ASSERT_FALSE(clientRx.empty());
    Packet ack;
    ack.tuple = t;
    ack.flags = kAck;
    ack.cookie = clientRx.back().cookie;
    clientRx.clear();
    wire.transmit(ack, eq.now());
    eq.runAll();

    // The cookie validates and mints a TCB, which the full accept
    // queue refuses: RST, and the TCB dies on the spot.
    EXPECT_EQ(k.stats().synCookiesValidated, 1u);
    EXPECT_EQ(k.stats().acceptOverflows, 1u);
    EXPECT_EQ(k.stats().acceptQueueRsts, 1u);
    EXPECT_TRUE(clientSaw(kRst));
    EXPECT_TRUE(lsock->acceptQueue.empty());
    EXPECT_EQ(k.stats().socketsCreated,
              k.stats().socketsDestroyed + k.liveSockets());
    EXPECT_EQ(k.liveSockets(), 1u) << "only the listener is left";
}

TEST_F(KernelFixture, CookieAckCarryingTheRequestIsServed)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.synBacklog = 0;
    kc.synCookies = true;
    build(kc);
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);

    FiveTuple t = tupleForQueue(0);
    send(t, kSyn);
    eq.runAll();
    ASSERT_FALSE(clientRx.empty());
    // The final ACK piggybacks the whole request, "Connection: close".
    Packet ack;
    ack.tuple = t;
    ack.flags = kAck | kConnClose;
    ack.payload = 120;
    ack.cookie = clientRx.back().cookie;
    wire.transmit(ack, eq.now());
    eq.runAll();

    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);
    EXPECT_EQ(r.sock->state, TcpState::kEstablished);
    auto rd = k.read(proc, eq.now(), r.fd);
    EXPECT_EQ(rd.bytes, 120u);
    EXPECT_TRUE(rd.connClose);
}

TEST_F(KernelFixture, StaleSynIntoLiveConnectionIsDropped)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    FiveTuple t = tupleForQueue(0);
    handshake(t);
    auto r = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r.sock, nullptr);

    const KernelStats before = k.stats();
    clientRx.clear();
    send(t, kSyn);
    eq.runAll();
    EXPECT_TRUE(clientRx.empty()) << "no SYN-ACK, no RST";
    EXPECT_EQ(k.stats().socketsCreated, before.socketsCreated);
    EXPECT_EQ(k.stats().synRetransmits, before.synRetransmits);
    EXPECT_EQ(r.sock->state, TcpState::kEstablished);
}

TEST_F(KernelFixture, TimeWaitRecycleReleasesTheHeldPort)
{
    KernelConfig kc = KernelConfig::base2632();
    kc.twRecycle = true;
    kc.ephemeralPortLo = 40000;   // two ports
    kc.ephemeralPortHi = 40001;
    build(kc);
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    k.listen(proc, srv(), 80);   // the outbound address

    // Active open and active close: the TIME_WAIT entry holds the port.
    auto c = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(c.sock, nullptr);
    const FiveTuple rx = c.sock->rxTuple;
    eq.runAll();
    send(rx, kSyn | kAck);
    eq.runAll();
    ASSERT_EQ(c.sock->state, TcpState::kEstablished);
    k.close(proc, eq.now(), c.fd);
    eq.runAll();
    send(rx, kAck | kFin);
    eq.runUntil(eq.now() + ticksFromMsec(2));
    EXPECT_EQ(k.stats().timeWaitEntered, 1u);
    auto other = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(other.sock, nullptr);
    EXPECT_NE(other.sock->rxTuple.dport, rx.dport);
    EXPECT_EQ(k.connect(proc, eq.now(), kBackendIp, 80).sock, nullptr)
        << "both ports taken";
    EXPECT_EQ(k.stats().portAllocFailures, 1u);

    // A SYN on the lingering tuple recycles the entry and frees its
    // port before the reaper would have.
    send(rx, kSyn);
    eq.runUntil(eq.now() + ticksFromMsec(2));
    EXPECT_EQ(k.stats().timeWaitRecycled, 1u);
    EXPECT_EQ(k.stats().timeWaitReaped, 0u);
    auto again = k.connect(proc, eq.now(), kBackendIp, 80);
    ASSERT_NE(again.sock, nullptr);
    EXPECT_EQ(again.sock->rxTuple.dport, rx.dport);
}

TEST_F(KernelFixture, SoftirqBudgetDropsSteeredSyn)
{
    overload.enabled = true;
    overload.softirqBudget = 1;
    build(KernelConfig::fastsocket(), 2);
    KernelStack &k = m->kernel();
    k.listen(k.addProcess(0), srv(), 80);
    const ReceiveFlowDeliver &rfd = *k.rfd();

    // A SYN from a well-known source port is active-incoming: RFD
    // steers it to the core its destination port hashes to. Keep that
    // core's SoftIRQ backlog busy with stray ACKs (never budgeted).
    Port dport = 40000;
    while (rfd.hash(dport) != 1)
        ++dport;
    FiveTuple syn{kBackendIp, srv(), 80, dport};
    FiveTuple stray = tupleForQueue(1);
    ASSERT_EQ(m->nic().rssQueue(syn), 0) << "arrives on the other core";
    for (int i = 0; i < 4; ++i)
        send(stray, kAck);
    send(syn, kSyn);
    eq.runAll();
    EXPECT_EQ(k.stats().steeredPackets, 1u);
    EXPECT_EQ(k.stats().backlogDropped, 1u);
    EXPECT_EQ(k.stats().timeWaitSynDropped + k.stats().synDropped, 0u);
}

/**
 * Paper 3.2.1 under live traffic: kill a process mid-run while it holds
 * SYN_RECV embryos and never-accepted connections on its listen clone
 * (a local-listen clone on Fastsocket, an SO_REUSEPORT clone on 3.13)
 * and accepted connections on other fds. Its exit closes every fd: the
 * clone dies with its children, every accepted connection sends its
 * FIN, no TCB keeps a pointer to the dead clone, and the survivor keeps
 * serving with every invariant held.
 */
class KillMidRun : public ::testing::TestWithParam<bool>
{
};

TEST_P(KillMidRun, TearsDownItsConnectionsAndKeepsServing)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.machine.listenIps = 1;
    cfg.machine.kernel = GetParam() ? KernelConfig::fastsocket()
                                    : KernelConfig::linux313();
    cfg.concurrencyPerCore = 100;
    // Keep-alive: between requests the victim holds accepted fds.
    cfg.requestsPerConn = 4;
    cfg.checkLevel = CheckLevel::kPeriodic;
    cfg.checkIntervalSec = 0.002;
    Testbed bed(cfg);
    EventQueue &eq = bed.eventQueue();
    KernelStack &k = bed.machine().kernel();
    const int victim = 0;
    KProcess &vp = k.process(victim);
    const Core &vcore = bed.machine().cpu().core(vp.core);
    // Before any load the victim's one fd is its listen fd, which
    // names its own clone.
    ASSERT_EQ(vp.filesLive, 1u);
    int lfd = 0;
    while (k.sockFromFd(victim, lfd) == nullptr)
        ++lfd;
    const Socket *clone = k.sockFromFd(victim, lfd);
    ASSERT_TRUE(clone->isLocalListen || clone->reuseportOwner == victim);

    // Step until the victim's clone holds both kinds of children and
    // the victim holds an accepted connection.
    auto embryosOf = [&k](const Socket *parent) {
        std::vector<const Socket *> out;
        for (const Socket *s : k.allSockets())
            if (s->parentListen == parent &&
                s->state == TcpState::kSynRcvd)
                out.push_back(s);
        return out;
    };
    bed.startLoad();
    bed.runUntilChecked(ticksFromMsec(5));
    for (int i = 0; i < 20000 && (embryosOf(clone).empty() ||
                                  clone->acceptQueue.empty() ||
                                  vp.filesLive < 2);
         ++i)
        bed.runUntilChecked(eq.now() + ticksFromUsec(1));
    ASSERT_FALSE(embryosOf(clone).empty());
    ASSERT_FALSE(clone->acceptQueue.empty());

    const std::uint64_t completed = bed.load().completed();
    const Tick kill = eq.now();
    k.killProcess(victim);
    EXPECT_FALSE(vp.alive);
    const std::size_t queued = vcore.backlog();
    k.killProcess(victim);
    EXPECT_EQ(vcore.backlog(), queued) << "a dead process dies once";

    // The accepted connections the exit must FIN (a dead process's fd
    // table no longer changes until then).
    std::vector<std::uint64_t> held;
    for (int fd = 0; fd < static_cast<int>(vp.files.size()); ++fd)
        if (const Socket *s = k.sockFromFd(victim, fd))
            if (s->kind == SockKind::kConnection)
                held.push_back(s->id);
    ASSERT_FALSE(held.empty());

    // Step one event at a time: the one that empties the fd table is
    // the exit task, and the state just before it is what it tears
    // down.
    std::vector<std::uint64_t> doomed;
    KernelStats before;
    std::size_t live = 0;
    while (vp.filesLive > 0) {
        doomed.clear();
        for (const Socket *s : embryosOf(clone))
            doomed.push_back(s->id);
        for (const Socket *s : clone->acceptQueue)
            doomed.push_back(s->id);
        before = k.stats();
        live = k.liveSockets();
        ASSERT_TRUE(eq.runOne());
    }
    const Tick start = eq.now();
    const Tick end = vcore.busyUntil();
    EXPECT_GE(start, kill);
    EXPECT_GT(end, start) << "the closes are charged on the dying core";
    EXPECT_EQ(k.sockFromFd(victim, lfd), nullptr);
    EXPECT_EQ(k.stats().socketsDestroyed - before.socketsDestroyed,
              doomed.size() + 1) << "children plus the clone";
    EXPECT_EQ(k.liveSockets(), live - doomed.size() - 1);
    for (const Socket *s : k.allSockets()) {
        if (std::find(held.begin(), held.end(), s->id) != held.end()) {
            EXPECT_TRUE(s->state == TcpState::kFinWait1 ||
                        s->state == TcpState::kLastAck)
                << tcpStateName(s->state);
        }
    }

    // Each torn-down connection's span closes inside the exit task.
    const auto &traces = bed.machine().tracer().connSpans().completed();
    std::size_t closed = 0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const ConnSpanTrace &tr = traces[i];
        if (std::find(doomed.begin(), doomed.end(), tr.connId) ==
            doomed.end())
            continue;
        ++closed;
        EXPECT_GE(tr.closeTick, start);
        EXPECT_LE(tr.closeTick, end);
    }
    EXPECT_EQ(closed, doomed.size());

    // No TCB points at the dead clone, and every surviving listener's
    // SYN queue length counts exactly its SYN_RECV children.
    for (const Socket *s : k.allSockets()) {
        EXPECT_NE(s->parentListen, clone);
        if (s->kind == SockKind::kListen) {
            EXPECT_EQ(s->synQueueLen, embryosOf(s).size());
        }
    }

    bed.runUntilChecked(eq.now() + ticksFromMsec(20));
    EXPECT_GT(bed.load().completed(), completed) << "the survivor serves";
    ExperimentResult r = bed.collect();
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
}

INSTANTIATE_TEST_SUITE_P(Kernels, KillMidRun, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "Fastsocket" : "Linux313";
                         });

} // anonymous namespace
} // namespace fsim
