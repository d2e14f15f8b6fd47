/**
 * @file
 * Connection-lifetime subsystem tests: the TCB slab arena, the compact
 * TIME_WAIT table, and the full TIME_WAIT lifecycle (linger, reap,
 * SYN-drop, recycle, port relief) on both kernel flavors.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "conn/tcb_arena.hh"
#include "conn/time_wait.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

// ---------------------------------------------------------------- arena

TEST(TcpState, EveryStateHasItsName)
{
    const char *names[] = {
        "CLOSED",      "LISTEN",    "SYN_SENT",  "SYN_RCVD",
        "ESTABLISHED", "FIN_WAIT1", "FIN_WAIT2", "CLOSE_WAIT",
        "LAST_ACK",    "TIME_WAIT",
    };
    for (int i = 0; i < 10; ++i)
        EXPECT_STREQ(tcpStateName(static_cast<TcpState>(i)), names[i]);
}

TEST(TcbArena, CountsCreateDestroyAndPeak)
{
    TcbArena arena;
    Socket *a = arena.create();
    Socket *b = arena.create();
    Socket *c = arena.create();
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(arena.live(), 3u);
    EXPECT_EQ(arena.peakLive(), 3u);
    EXPECT_EQ(arena.totalCreated(), 3u);
    arena.destroy(b);
    EXPECT_EQ(arena.live(), 2u);
    EXPECT_EQ(arena.peakLive(), 3u) << "peak is a high-water mark";
    EXPECT_EQ(arena.totalCreated(), 3u);
}

TEST(TcbArena, RecyclesSlotsLifo)
{
    TcbArena arena;
    Socket *a = arena.create();
    arena.destroy(a);
    Socket *b = arena.create();
    EXPECT_EQ(a, b) << "freed slot must be reused hot (LIFO freelist)";
    EXPECT_EQ(arena.slabCount(), 1u);
}

TEST(TcbArena, GrowsAcrossSlabsAndReportsBytes)
{
    TcbArena arena;
    std::vector<Socket *> socks;
    for (std::size_t i = 0; i < TcbArena::kSlabSize + 1; ++i)
        socks.push_back(arena.create());
    EXPECT_EQ(arena.slabCount(), 2u);
    EXPECT_EQ(arena.slabBytes(),
              2 * TcbArena::kSlabSize * sizeof(Socket));
    EXPECT_GT(arena.bytesPerConn(), 0.0);
    // Near-full occupancy: bytes/conn is close to sizeof(Socket) (the
    // second slab is almost entirely slack, so allow 2x).
    EXPECT_LT(arena.bytesPerConn(), 2.0 * sizeof(Socket));
    for (Socket *s : socks)
        arena.destroy(s);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.slabCount(), 2u) << "slabs never shrink";
}

TEST(TcbArena, ForEachVisitsExactlyTheLiveSet)
{
    TcbArena arena;
    std::vector<Socket *> socks;
    for (int i = 0; i < 200; ++i)
        socks.push_back(arena.create());
    std::set<const Socket *> expect(socks.begin(), socks.end());
    for (int i = 0; i < 200; i += 3) {
        expect.erase(socks[i]);
        arena.destroy(socks[i]);
    }
    std::set<const Socket *> seen;
    arena.forEach([&seen](Socket *s) { seen.insert(s); });
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(seen.size(), arena.live());
}

// ------------------------------------------------------ time-wait table

FiveTuple
tuple(std::uint32_t peer, Port peer_port, Port local_port)
{
    FiveTuple t;
    t.saddr = peer;
    t.daddr = 0x0a000001;
    t.sport = peer_port;
    t.dport = local_port;
    return t;
}

TEST(TimeWaitTable, AddFindRemove)
{
    TimeWaitTable tw(1);
    FiveTuple t = tuple(1, 2000, 80);
    tw.add(0, t, /*expires=*/50, /*holds_port=*/true);
    const TimeWaitTable::Entry *e = tw.find(t);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->expires, 50u);
    EXPECT_TRUE(e->holdsPort);
    EXPECT_EQ(tw.size(), 1u);

    TimeWaitTable::Entry out;
    EXPECT_TRUE(tw.remove(t, &out));
    EXPECT_TRUE(out.holdsPort);
    EXPECT_FALSE(tw.remove(t));
    EXPECT_EQ(tw.find(t), nullptr);
    EXPECT_EQ(tw.size(), 0u);
    EXPECT_EQ(tw.peakSize(), 1u);
}

TEST(TimeWaitTable, ReapsInExpiryOrder)
{
    TimeWaitTable tw(1);
    tw.add(0, tuple(1, 2000, 80), 5, false);
    tw.add(0, tuple(2, 2000, 80), 10, false);
    tw.add(0, tuple(3, 2000, 80), 15, false);

    std::vector<TimeWaitTable::Entry> reaped;
    std::uint64_t next = tw.reapExpired(0, /*now_jiffy=*/10, reaped);
    ASSERT_EQ(reaped.size(), 2u);
    EXPECT_EQ(reaped[0].tuple.saddr, 1u);
    EXPECT_EQ(reaped[1].tuple.saddr, 2u);
    EXPECT_EQ(next, 15u) << "head expiry of the surviving entry";
    EXPECT_EQ(tw.size(), 1u);

    reaped.clear();
    EXPECT_EQ(tw.reapExpired(0, 20, reaped), 0u) << "bucket drained";
    EXPECT_EQ(reaped.size(), 1u);
    EXPECT_EQ(tw.peakSize(), 3u);
}

TEST(TimeWaitTable, GenerationStampPreventsStaleSlotAliasing)
{
    TimeWaitTable tw(1);
    FiveTuple t = tuple(7, 4000, 80);
    tw.add(0, t, 10, false);
    EXPECT_TRUE(tw.remove(t));      // leaves a stale FIFO slot behind
    tw.add(0, t, 50, false);        // same tuple, new lingering episode

    std::vector<TimeWaitTable::Entry> reaped;
    std::uint64_t next = tw.reapExpired(0, 10, reaped);
    EXPECT_TRUE(reaped.empty())
        << "the stale slot must not reap the re-added entry early";
    EXPECT_EQ(next, 50u);
    EXPECT_NE(tw.find(t), nullptr);

    reaped.clear();
    tw.reapExpired(0, 50, reaped);
    ASSERT_EQ(reaped.size(), 1u);
    EXPECT_EQ(reaped[0].expires, 50u);
}

TEST(TimeWaitTable, HeadExpiryPrunesStaleHeads)
{
    TimeWaitTable tw(2);
    tw.add(1, tuple(1, 2000, 80), 10, false);
    tw.add(1, tuple(2, 2000, 80), 20, false);
    EXPECT_EQ(tw.headExpiry(1), 10u);
    EXPECT_TRUE(tw.remove(tuple(1, 2000, 80)));
    EXPECT_EQ(tw.headExpiry(1), 20u) << "stale head slot skipped";
    EXPECT_EQ(tw.headExpiry(0), 0u) << "other bucket empty";
}

// ------------------------------------------- kernel-level TW lifecycle

/** Drive a bounded short-lived nginx workload to completion + linger. */
ExperimentResult
runBounded(ExperimentConfig &, Testbed &bed, double sim_sec)
{
    bed.startLoad();
    bed.markWindows();
    bed.runUntilChecked(ticksFromSeconds(sim_sec));
    return bed.collect();
}

TEST(TimeWaitLifecycle, LingerReapAndAgreementAcrossKernels)
{
    // The server actively closes every short-lived exchange, so each of
    // the 300 connections must enter TIME_WAIT, linger ~20 jiffies, and
    // be reaped by the shared per-bucket reaper — on both kernels, with
    // identical lifecycle totals (the diff-oracle bar applied to the
    // TIME_WAIT path).
    std::vector<KernelStats> totals;
    for (const KernelConfig &k :
         {KernelConfig::base2632(), KernelConfig::fastsocket()}) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 2;
        cfg.machine.kernel = k;
        cfg.concurrencyPerCore = 20;
        cfg.maxConns = 300;
        Testbed bed(cfg);
        ExperimentResult r = runBounded(cfg, bed, 2.0);
        EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
        EXPECT_EQ(bed.load().completed(), 300u);
        EXPECT_EQ(bed.load().failed(), 0u);

        const KernelStack &kern = bed.machine().kernel();
        const KernelStats &ks = kern.stats();
        EXPECT_EQ(ks.timeWaitEntered, 300u)
            << "every active close must linger";
        EXPECT_EQ(ks.timeWaitReaped, ks.timeWaitEntered)
            << "linger elapsed: the reaper must have drained the table";
        EXPECT_EQ(kern.timeWaitTable().size(), 0u);
        EXPECT_GT(kern.timeWaitTable().peakSize(), 0u);
        EXPECT_EQ(ks.establishedCurr, 0u);
        EXPECT_EQ(ks.timeWaitRecycled, 0u);
        EXPECT_EQ(ks.portAllocFailures, 0u);
        totals.push_back(ks);
    }
    EXPECT_EQ(totals[0].timeWaitEntered, totals[1].timeWaitEntered);
    EXPECT_EQ(totals[0].timeWaitReaped, totals[1].timeWaitReaped);
    EXPECT_EQ(totals[0].timeWaitSynDropped,
              totals[1].timeWaitSynDropped);
}

TEST(TimeWaitLifecycle, SynIntoLingeringTupleDropsThenRetrySucceeds)
{
    // One client IP with 8 ephemeral ports and 16 wanted connections in
    // flight: completed tuples are immediately re-dialed while the
    // server side still lingers. Conservative stacks drop those SYNs;
    // the client's RTO retry lands after the linger and every
    // connection still completes.
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.concurrencyPerCore = 8;
    cfg.clientIps = 1;
    cfg.clientPortSpan = 8;
    cfg.maxConns = 120;
    cfg.clientRtoBase = ticksFromSeconds(0.005);
    Testbed bed(cfg);
    ExperimentResult r = runBounded(cfg, bed, 4.0);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
    EXPECT_EQ(bed.load().completed(), 120u);
    EXPECT_EQ(bed.load().failed(), 0u);

    const KernelStats &ks = bed.machine().kernel().stats();
    EXPECT_GT(ks.timeWaitSynDropped, 0u)
        << "tuple reuse inside the linger must hit the drop path";
    EXPECT_EQ(ks.timeWaitRecycled, 0u);
}

TEST(TimeWaitLifecycle, RecycleAdmitsTupleReuseWithoutRetries)
{
    // Same pressure, tcp_tw_recycle on: the fresh SYN reclaims the
    // lingering entry instead of being dropped.
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.kernel = KernelConfig::base2632();
    cfg.machine.kernel.twRecycle = true;
    cfg.concurrencyPerCore = 8;
    cfg.clientIps = 1;
    cfg.clientPortSpan = 8;
    cfg.maxConns = 120;
    cfg.clientRtoBase = ticksFromSeconds(0.005);
    Testbed bed(cfg);
    ExperimentResult r = runBounded(cfg, bed, 4.0);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
    EXPECT_EQ(bed.load().completed(), 120u);
    EXPECT_EQ(bed.load().failed(), 0u);

    const KernelStats &ks = bed.machine().kernel().stats();
    EXPECT_GT(ks.timeWaitRecycled, 0u)
        << "recycle must reclaim lingering tuples on SYN";
    EXPECT_EQ(ks.timeWaitSynDropped, 0u)
        << "with recycle on, no SYN should be dropped for TIME_WAIT";
}

TEST(TimeWaitLifecycle, TwReuseRelievesProxyPortExhaustion)
{
    // An active-connect proxy against ONE keep-alive backend with a
    // 16-port ephemeral range. Keep-alive backends never FIN first, so
    // the proxy actively closes every backend connection and each
    // ephemeral port lingers in TIME_WAIT for the full 20ms. Only 8
    // sessions run concurrently — live connections alone never exhaust
    // the range — but the lingering entries do: connect() hits
    // EADDRNOTAVAIL. With tcp_tw_reuse the port returns at close time
    // and the same workload sails through.
    auto run = [](bool tw_reuse) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kHaproxy;
        cfg.machine.cores = 2;
        cfg.machine.kernel = KernelConfig::base2632();
        cfg.machine.kernel.ephemeralPortLo = 32768;
        cfg.machine.kernel.ephemeralPortHi = 32783;
        cfg.machine.kernel.twReuse = tw_reuse;
        cfg.backendCount = 1;
        cfg.backendKeepAlive = true;
        cfg.concurrencyPerCore = 4;
        cfg.maxConns = 300;
        Testbed bed(cfg);
        bed.startLoad();
        bed.runUntilChecked(ticksFromSeconds(3.0));
        const KernelStats &ks = bed.machine().kernel().stats();
        struct
        {
            std::uint64_t portFailures;
            std::uint64_t twEntered;
            std::uint64_t clientFailed;
            std::uint64_t completed;
        } out{ks.portAllocFailures, ks.timeWaitEntered,
              bed.load().failed(), bed.load().completed()};
        return out;
    };

    auto exhausted = run(/*tw_reuse=*/false);
    EXPECT_GT(exhausted.twEntered, 0u)
        << "the proxy must be the active closer toward keep-alive "
           "backends";
    EXPECT_GT(exhausted.portFailures, 0u)
        << "16 ports + 20ms linger must exhaust the range";
    EXPECT_GT(exhausted.clientFailed, 0u)
        << "port exhaustion is client-visible through the proxy";

    auto relieved = run(/*tw_reuse=*/true);
    EXPECT_GT(relieved.twEntered, 0u);
    EXPECT_EQ(relieved.portFailures, 0u)
        << "tcp_tw_reuse returns ports at close time";
    EXPECT_EQ(relieved.clientFailed, 0u);
    EXPECT_EQ(relieved.completed, 300u);
}

TEST(MixedLifetime, ConnectionCloseNegotiationDrainsBothKernels)
{
    // Half the connections are long-lived (2 keep-alive requests with a
    // short think), half are "Connection: close" one-shots. The server
    // keeps keep-alive on yet actively closes each connection at its
    // flagged last request, so every connection funnels through
    // TIME_WAIT — and both kernels agree on every lifecycle total.
    std::vector<KernelStats> totals;
    for (const KernelConfig &k :
         {KernelConfig::base2632(), KernelConfig::fastsocket()}) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = 2;
        cfg.machine.kernel = k;
        cfg.concurrencyPerCore = 15;
        cfg.maxConns = 200;
        cfg.longLivedPermille = 500;
        cfg.longLivedRequests = 2;
        cfg.longLivedThink = ticksFromSeconds(0.002);
        Testbed bed(cfg);
        ExperimentResult r = runBounded(cfg, bed, 3.0);
        EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
        EXPECT_EQ(bed.load().completed(), 200u);
        EXPECT_EQ(bed.load().failed(), 0u);
        EXPECT_EQ(bed.load().responses(), 300u)
            << "100 one-shots + 100 two-request keep-alive conns";

        const KernelStats &ks = bed.machine().kernel().stats();
        EXPECT_EQ(ks.timeWaitEntered, 200u)
            << "the close header must put the server on the "
               "active-close path for every connection";
        EXPECT_EQ(ks.timeWaitReaped, 200u);
        EXPECT_GT(ks.establishedPeak, 0u);
        EXPECT_EQ(ks.establishedCurr, 0u);
        totals.push_back(ks);
    }
    EXPECT_EQ(totals[0].timeWaitEntered, totals[1].timeWaitEntered);
    EXPECT_EQ(totals[0].timeWaitReaped, totals[1].timeWaitReaped);
}

} // anonymous namespace
} // namespace fsim
