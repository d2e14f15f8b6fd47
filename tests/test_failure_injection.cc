/**
 * @file
 * Failure-injection tests: wire packet loss with client give-up timers,
 * duplicate SYNs, connect() refusal, and kernel edge transitions.
 */

#include <gtest/gtest.h>

#include "app/proxy.hh"
#include "app/syn_flood.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

TEST(Wire, LossRateDropsRoughlyThatFraction)
{
    EventQueue eq;
    Wire wire(eq, 10);
    wire.setLossRate(0.25, 42);
    int got = 0;
    wire.attach(1, [&](const Packet &) { ++got; });
    Packet p;
    p.tuple.daddr = 1;
    for (int i = 0; i < 4000; ++i)
        wire.transmit(p, eq.now());
    eq.runAll();
    EXPECT_NEAR(got, 3000, 150);
    EXPECT_NEAR(static_cast<double>(wire.lost()), 1000.0, 150.0);
}

TEST(FailureInjection, SystemSurvivesPacketLoss)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 40;
    cfg.lossRate = 0.02;
    cfg.clientTimeout = ticksFromMsec(5);
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.05;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    // Losses abort some connections, but the closed loop keeps going and
    // the vast majority still complete.
    EXPECT_GT(bed.load().timeouts(), 0u);
    EXPECT_GT(r.served, 500u);
    EXPECT_GT(bed.load().completed(),
              bed.load().failed() * 5);
    // Conservation still holds with timeouts in the mix.
    EXPECT_EQ(bed.load().started(),
              bed.load().completed() + bed.load().failed() +
                  bed.load().inFlight());
}

TEST(FailureInjection, ProxySurvivesPacketLoss)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 30;
    cfg.lossRate = 0.01;
    cfg.clientTimeout = ticksFromMsec(8);
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.05;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.served, 300u);
    EXPECT_EQ(bed.load().started(),
              bed.load().completed() + bed.load().failed() +
                  bed.load().inFlight());
}

TEST(FailureInjection, ProxyBackendTimeoutRacingTheResponseIsDropped)
{
    // A backend timeout that fires while the response is already queued
    // for the proxy loses the race: the session completes, and the
    // posted recovery finds it gone, so it neither retries nor fails.
    // Every other timeout either retries or fails its session.
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 60;
    cfg.backendCount = 2;
    cfg.backendTimeout = ticksFromUsec(500);
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.03;
    std::string err;
    ASSERT_TRUE(parseFaultPlan("backend_slow@0-10:factor=2,target=0",
                               cfg.faults, err))
        << err;

    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    auto *px = dynamic_cast<Proxy *>(&bed.app());
    ASSERT_NE(px, nullptr);
    EXPECT_GT(px->backendRetries(), 0u);
    EXPECT_GT(px->sessionFailures(), 0u);
    EXPECT_GT(px->backendTimeouts(),
              px->backendRetries() + px->sessionFailures() + 100)
        << "timeouts that lost the race to the response";
    EXPECT_GT(r.served, 0u);
    EXPECT_EQ(r.invariants.violationCount, 0u) << r.invariants.summary();
}

TEST(FailureInjection, SynFloodPastOneSynPerTickSendsOneEachTick)
{
    // A rate whose spacing rounds to zero ticks still advances: one SYN
    // per tick, and the attacker addresses absorb the SYN-ACKs.
    EventQueue eq;
    Wire wire(eq, 10);
    int syns = 0;
    wire.attach(500, [&](const Packet &p) {
        ++syns;
        Packet synack;
        synack.tuple = p.tuple.reversed();
        synack.flags = kSyn | kAck;
        wire.transmit(synack, eq.now());
    });
    SynFlood flood(eq, wire, {500}, 80);
    flood.addWindow(0, 100, 1e15);
    eq.runAll();
    EXPECT_EQ(flood.synsSent(), 100u);
    EXPECT_EQ(syns, 100);
    EXPECT_EQ(wire.delivered(), 200u);
    EXPECT_EQ(wire.dropped(), 0u);
}

TEST(FailureInjection, TimeoutWithoutLossIsHarmless)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.concurrencyPerCore = 30;
    cfg.clientTimeout = ticksFromMsec(20);   // generous
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.04;

    Testbed bed(cfg);
    bed.run();
    EXPECT_EQ(bed.load().timeouts(), 0u);
    EXPECT_EQ(bed.load().failed(), 0u);
}

TEST(KernelEdge, DuplicateSynDoesNotMintSecondSocket)
{
    EventQueue eq;
    Wire wire(eq, ticksFromUsec(10));
    MachineConfig mc;
    mc.cores = 2;
    mc.listenIps = 1;
    Machine m(eq, wire, mc);
    int synacks = 0;
    wire.attachRange(0xac100001, 0xac10ffff, [&](const Packet &p) {
        if (p.has(kSyn) && p.has(kAck))
            ++synacks;
    });
    KernelStack &k = m.kernel();
    int proc = k.addProcess(0);
    k.listen(proc, m.addrs()[0], 80);

    Packet syn;
    syn.tuple = FiveTuple{0xac100001, m.addrs()[0], 30000, 80};
    syn.flags = kSyn;
    std::size_t before = k.liveSockets();
    wire.transmit(syn, eq.now());
    eq.runAll();
    wire.transmit(syn, eq.now());   // client retransmission
    eq.runAll();
    EXPECT_EQ(k.liveSockets(), before + 1)
        << "retransmitted SYN must reuse the pending TCB";
    EXPECT_EQ(synacks, 2) << "but the SYN-ACK is re-sent";
}

TEST(KernelEdge, RstToSynSentAbortsConnect)
{
    EventQueue eq;
    Wire wire(eq, ticksFromUsec(10));
    MachineConfig mc;
    mc.cores = 1;
    mc.listenIps = 1;
    Machine m(eq, wire, mc);
    // A "connection refused" backend.
    wire.attach(0x0a010001, [&](const Packet &p) {
        Packet rst;
        rst.tuple = p.tuple.reversed();
        rst.flags = kRst;
        wire.transmit(rst, eq.now());
    });
    KernelStack &k = m.kernel();
    int proc = k.addProcess(0);
    k.listen(proc, m.addrs()[0], 80);
    std::size_t baseline = k.liveSockets();

    auto c = k.connect(proc, eq.now(), 0x0a010001, 80);
    ASSERT_NE(c.sock, nullptr);
    eq.runAll();
    EXPECT_EQ(c.sock->state, TcpState::kClosed)
        << "refused, but the fd still names the socket";
    k.close(proc, eq.now(), c.fd);
    EXPECT_EQ(k.liveSockets(), baseline)
        << "refused connection must be torn down by its close()";
}

TEST(KernelEdge, CloseInSynSentAbortsCleanly)
{
    EventQueue eq;
    Wire wire(eq, ticksFromUsec(10));
    MachineConfig mc;
    mc.cores = 1;
    mc.listenIps = 1;
    Machine m(eq, wire, mc);
    wire.attach(0x0a010001, [](const Packet &) {});   // black hole
    KernelStack &k = m.kernel();
    int proc = k.addProcess(0);
    k.listen(proc, m.addrs()[0], 80);
    std::size_t baseline = k.liveSockets();

    auto c = k.connect(proc, eq.now(), 0x0a010001, 80);
    ASSERT_NE(c.sock, nullptr);
    Port used = c.sock->rxTuple.dport;
    k.close(proc, c.t, c.fd);   // abort before the handshake completes
    eq.runAll();
    EXPECT_EQ(k.liveSockets(), baseline);
    // A fresh connect still works and gets a distinct live socket.
    auto c2 = k.connect(proc, eq.now(), 0x0a010001, 80);
    ASSERT_NE(c2.sock, nullptr);
    EXPECT_NE(c2.sock->rxTuple.dport, 0);
    (void)used;
    EXPECT_EQ(k.liveSockets(), baseline + 1);
}

} // anonymous namespace
} // namespace fsim
