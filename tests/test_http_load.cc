/**
 * @file
 * Unit tests for the http_load-style client fleet, against a scripted
 * fake server endpoint (no kernel involved), plus the latency window
 * checked against a brute-force recomputation, including the fleet's
 * cursor over the same latency log.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "app/http_load.hh"
#include "fleet/fleet.hh"
#include "sim/rng.hh"

namespace fsim
{
namespace
{

/** A minimal short-lived-HTTP server endpoint on the wire. */
struct FakeServer
{
    EventQueue &eq;
    Wire &wire;
    std::uint64_t requests = 0;
    std::uint64_t syns = 0;
    bool sendRst = false;
    std::set<std::uint32_t> seenSports;

    FakeServer(EventQueue &e, Wire &w, IpAddr addr)
        : eq(e), wire(w)
    {
        wire.attach(addr, [this](const Packet &p) { onPacket(p); });
    }

    void
    reply(const Packet &in, std::uint8_t flags, std::uint32_t payload = 0)
    {
        Packet out;
        out.tuple = in.tuple.reversed();
        out.flags = flags;
        out.payload = payload;
        wire.transmit(out, eq.now());
    }

    void
    onPacket(const Packet &p)
    {
        if (p.has(kSyn)) {
            ++syns;
            seenSports.insert((static_cast<std::uint32_t>(p.tuple.saddr)
                               << 16) ^ p.tuple.sport);
            reply(p, sendRst ? kRst : (kSyn | kAck));
            return;
        }
        if (p.payload > 0) {
            ++requests;
            // Serve then close: response followed by FIN.
            reply(p, kAck | kPsh, 64);
            reply(p, kFin | kAck);
            return;
        }
        if (p.has(kFin))
            reply(p, kAck);
    }
};

struct LoadFixture : public ::testing::Test
{
    EventQueue eq;
    Wire wire{eq, ticksFromUsec(10)};
    FakeServer server{eq, wire, 500};

    HttpLoad::Config
    config(int concurrency)
    {
        HttpLoad::Config c;
        c.serverAddrs = {500};
        c.concurrency = concurrency;
        return c;
    }
};

TEST_F(LoadFixture, CompletesFullExchange)
{
    HttpLoad load(eq, wire, config(1));
    load.start();
    eq.runUntil(ticksFromMsec(5));
    EXPECT_GT(load.completed(), 0u);
    EXPECT_EQ(load.failed(), 0u);
    EXPECT_GT(server.requests, 0u);
}

TEST_F(LoadFixture, ClosedLoopMaintainsConcurrency)
{
    HttpLoad load(eq, wire, config(10));
    load.start();
    eq.runUntil(ticksFromMsec(3));
    // Each completion relaunches: started = completed + in flight.
    EXPECT_EQ(load.started(), load.completed() + load.inFlight());
    EXPECT_EQ(load.inFlight(), 10u);
    EXPECT_GT(load.completed(), 20u);
}

TEST_F(LoadFixture, RstCountsAsFailureAndRelaunches)
{
    server.sendRst = true;
    HttpLoad load(eq, wire, config(2));
    load.start();
    eq.runUntil(ticksFromMsec(2));
    EXPECT_GT(load.failed(), 0u);
    EXPECT_EQ(load.completed(), 0u);
    EXPECT_EQ(load.inFlight(), 2u) << "failures relaunch in closed loop";
}

TEST_F(LoadFixture, DistinctTuplesPerConnection)
{
    HttpLoad load(eq, wire, config(16));
    load.start();
    eq.runUntil(ticksFromMsec(3));
    EXPECT_EQ(server.seenSports.size(), server.syns)
        << "no (ip,port) reuse while connections are in flight";
}

TEST_F(LoadFixture, OpenLoopRateIsRoughlyHonored)
{
    HttpLoad load(eq, wire, config(1));
    load.startOpenLoop(50000.0);
    eq.runUntil(ticksFromMsec(40));
    load.stopOpenLoop();
    double secs = 0.040;
    EXPECT_NEAR(static_cast<double>(load.started()), 50000.0 * secs,
                50000.0 * secs * 0.25);
}

TEST_F(LoadFixture, StopOpenLoopHaltsNewStarts)
{
    HttpLoad load(eq, wire, config(1));
    load.startOpenLoop(50000.0);
    eq.runUntil(ticksFromMsec(5));
    load.stopOpenLoop();
    std::uint64_t at_stop = load.started();
    eq.runUntil(ticksFromMsec(20));
    EXPECT_LE(load.started(), at_stop + 1);
}

TEST_F(LoadFixture, ThroughputWindowing)
{
    HttpLoad load(eq, wire, config(8));
    load.start();
    eq.runUntil(ticksFromMsec(2));
    load.markWindow();
    std::uint64_t before = load.completed();
    eq.runUntil(ticksFromMsec(6));
    double cps = load.throughputSinceMark();
    double expect = static_cast<double>(load.completed() - before) / 0.004;
    EXPECT_NEAR(cps, expect, expect * 0.01 + 1);
}

/** FakeServer whose responses take a random 0-500 us service time, so
 *  latency samples spread out instead of all being equal. */
struct JitterServer : FakeServer
{
    Rng rng{11};

    JitterServer(EventQueue &e, Wire &w, IpAddr addr) : FakeServer(e, w, addr)
    {
        wire.attach(addr, [this](const Packet &p) { onPacket(p); });
    }

    void
    onPacket(const Packet &p)
    {
        if (p.payload == 0) {
            FakeServer::onPacket(p);
            return;
        }
        ++requests;
        const Tick at = eq.now() + ticksFromUsec(rng.range(500));
        Packet out;
        out.tuple = p.tuple.reversed();
        out.flags = kAck | kPsh;
        out.payload = 64;
        wire.transmit(out, at);
        out.flags = kFin | kAck;
        out.payload = 0;
        wire.transmit(out, at);
    }
};

/** Latencies of the samples completed at or after @p mark, sorted. */
std::vector<Tick>
bruteForceWindow(const HttpLoad &load, Tick mark)
{
    std::vector<Tick> lat;
    for (const auto &s : load.latencySamples())
        if (s.first >= mark)
            lat.push_back(s.second);
    std::sort(lat.begin(), lat.end());
    return lat;
}

/** Nearest-rank percentile of sorted @p lat, as the window defines it. */
Tick
bruteForcePercentile(const std::vector<Tick> &lat, double p)
{
    if (lat.empty())
        return 0;
    return lat[static_cast<std::size_t>(
        p * static_cast<double>(lat.size() - 1) + 0.5)];
}

/** The window since @p mark: count and percentiles vs brute force. */
void
expectWindowMatchesBruteForce(const HttpLoad &load, Tick mark)
{
    const std::vector<Tick> lat = bruteForceWindow(load, mark);
    EXPECT_EQ(load.latencySamplesSinceMark(), lat.size());
    for (double p : {0.0, 0.5, 0.99, 0.9999, 1.0})
        EXPECT_EQ(load.latencyPercentileSinceMark(p),
                  bruteForcePercentile(lat, p))
            << "p" << p * 100 << " of " << lat.size() << " samples";
}

/** A closed loop of 32 connections against a JitterServer. */
struct HttpLoadLatency : public ::testing::Test
{
    EventQueue eq;
    Wire wire{eq, ticksFromUsec(10)};
    JitterServer server{eq, wire, 500};
    HttpLoad load{eq, wire, config()};

    static HttpLoad::Config
    config()
    {
        HttpLoad::Config c;
        c.serverAddrs = {500};
        c.concurrency = 32;
        return c;
    }
};

TEST_F(HttpLoadLatency, WindowMatchesBruteForce)
{
    load.start();

    load.markWindow();      // before any traffic: the window is the run
    eq.runUntil(ticksFromMsec(60));
    ASSERT_GT(load.latencySamples().size(), 5000u);
    expectWindowMatchesBruteForce(load, 0);

    load.markWindow();      // mid-run, then more traffic
    const Tick mark = eq.now();
    eq.runUntil(ticksFromMsec(120));
    expectWindowMatchesBruteForce(load, mark);

    load.markWindow();      // nothing completed since
    EXPECT_EQ(load.latencySamplesSinceMark(), 0u);
    EXPECT_EQ(load.latencyPercentileSinceMark(0.99), 0u);
}

TEST_F(HttpLoadLatency, SamplesCompletedAtTheMarkTickAreInTheWindow)
{
    load.start();
    eq.runUntil(ticksFromMsec(5));

    // Step to the next completion and mark the window at its tick.
    const std::size_t before = load.latencySamples().size();
    while (load.latencySamples().size() == before)
        ASSERT_TRUE(eq.runOne());
    const Tick mark = eq.now();
    ASSERT_EQ(load.latencySamples().back().first, mark);
    load.markWindow();
    EXPECT_EQ(load.latencySamplesSinceMark(), 1u);
    EXPECT_EQ(load.latencyPercentileSinceMark(0.5),
              load.latencySamples().back().second);

    eq.runUntil(ticksFromMsec(10));
    expectWindowMatchesBruteForce(load, mark);
}

TEST(HttpLoadFleet, CursorConsumesEverySampleOnce)
{
    FleetConfig fc;
    fc.serverMachines = 2;
    fc.balancers = 1;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 2;
    fc.base.machine.traceEnabled = false;
    fc.base.concurrencyPerCore = 20;
    fc.base.checkLevel = CheckLevel::kOff;
    fc.sloEnabled = true;
    fc.slo.latencyObjective = ticksFromUsec(1000);
    FleetTestbed bed(fc);
    bed.startLoad();

    // Six sub-windows, each fed to the SLO tracker through the fleet's
    // cursor; the latency objective's (good, bad) per window must match
    // a recount over the log slice that window covered.
    const HttpLoad &load = bed.load();
    std::vector<std::size_t> cuts{0};
    Tick t = 0;
    for (int w = 0; w < 6; ++w) {
        const Tick start = t;
        t += ticksFromMsec(40);
        bed.runUntilChecked(t);
        bed.sampleObservability(start, t);
        cuts.push_back(load.latencySamples().size());
    }
    ASSERT_NE(bed.slo(), nullptr);
    const SloObjective *obj = nullptr;
    for (const SloObjective &o : bed.slo()->objectives())
        if (o.name == "latency")
            obj = &o;
    ASSERT_NE(obj, nullptr);
    ASSERT_EQ(obj->windows.size(), 6u);

    std::uint64_t misses = 0;
    for (std::size_t w = 0; w < 6; ++w) {
        std::uint64_t slow = 0;
        for (std::size_t i = cuts[w]; i < cuts[w + 1]; ++i)
            slow += load.latencySamples()[i].second > fc.slo.latencyObjective;
        const auto [good, bad] = obj->windows[w];
        EXPECT_EQ(good + bad, cuts[w + 1] - cuts[w]) << "window " << w;
        EXPECT_EQ(bad, slow) << "window " << w;
        misses += slow;
    }
    // The objective splits the samples: the check compares real counts.
    EXPECT_GT(misses, 0u);
    EXPECT_LT(misses, cuts.back());
}

struct KeepAliveServer : FakeServer
{
    using FakeServer::FakeServer;

    void
    onPacket(const Packet &p)
    {
        // Keep-alive: respond without FIN; close only after client FIN.
        if (p.has(kSyn)) {
            ++syns;
            reply(p, kSyn | kAck);
        } else if (p.payload > 0) {
            ++requests;
            reply(p, kAck | kPsh, 64);
        } else if (p.has(kFin)) {
            reply(p, kFin | kAck);   // our FIN rides with the ACK
        }
    }
};

TEST(HttpLoadKeepAlive, IssuesAllRequestsThenCloses)
{
    EventQueue eq;
    Wire wire(eq, ticksFromUsec(10));
    KeepAliveServer server(eq, wire, 500);
    wire.attach(500, [&server](const Packet &p) { server.onPacket(p); });

    HttpLoad::Config c;
    c.serverAddrs = {500};
    c.concurrency = 1;
    c.requestsPerConn = 5;
    HttpLoad load(eq, wire, c);
    load.start();
    eq.runUntil(ticksFromMsec(4));
    ASSERT_GT(load.completed(), 2u);
    // Each completed connection carried exactly 5 requests.
    EXPECT_GE(load.responses(), load.completed() * 5);
    EXPECT_NEAR(static_cast<double>(server.requests),
                static_cast<double>(load.completed()) * 5.0, 6.0);
}

} // anonymous namespace
} // namespace fsim
