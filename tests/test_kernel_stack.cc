/**
 * @file
 * Integration tests for the simulated kernel stack driven by hand-crafted
 * packets: handshakes, data, teardown, robustness slow path, RFD ports,
 * reuseport clones, backlog overflow.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/machine.hh"

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

    void
    build(const KernelConfig &kc, int cores = 2)
    {
        MachineConfig mc;
        mc.cores = cores;
        mc.kernel = kc;
        mc.listenIps = 1;
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

TEST_F(KernelFixture, RfdEncodesCoreInSourcePort)
{
    build(KernelConfig::fastsocket(), 4);
    KernelStack &k = m->kernel();
    Port mask = ReceiveFlowDeliver::hashMask(4);
    for (CoreId core = 0; core < 4; ++core) {
        int proc = k.addProcess(core);
        k.listen(proc, srv(), 80);
        if (k.config().localListen)
            k.localListen(proc, srv(), 80);
        auto c = k.connect(proc, eq.now(), kBackendIp, 80);
        ASSERT_NE(c.sock, nullptr);
        Port psrc = c.sock->rxTuple.dport;
        EXPECT_EQ(psrc & mask, core)
            << "RFD: hash(psrc) must be the initiating core";
        EXPECT_GT(psrc, kWellKnownPortMax);
    }
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

} // anonymous namespace
} // namespace fsim
