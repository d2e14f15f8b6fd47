/**
 * @file
 * google-benchmark micro-benchmarks of the substrate data structures:
 * event queue, timer wheel, fd bitmap, RFD hashing, NIC classification.
 * These are real (not simulated-time) costs of the library itself.
 *
 * Not on runRows: it runs under google-benchmark.
 */

#include <benchmark/benchmark.h>

#include "fastsocket/rfd.hh"
#include "net/nic.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"
#include "vfs/fd_table.hh"

namespace
{

using namespace fsim;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>(i * 7 % 997), [] {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_TimerWheelAddCancel(benchmark::State &state)
{
    TimerWheel tw;
    std::uint64_t e = 1;
    for (auto _ : state) {
        auto id = tw.add(e + (e * 31 % 5000), [] {});
        tw.cancel(id);
        ++e;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheelAddCancel);

void
BM_TimerWheelChurnWithAdvance(benchmark::State &state)
{
    TimerWheel tw;
    std::uint64_t now = 0;
    Rng rng(3);
    for (auto _ : state) {
        tw.add(now + 1 + rng.range(3000), [] {});
        if ((now & 15) == 0)
            tw.advance(now + 4);
        now += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheelChurnWithAdvance);

void
BM_FdTableAllocFree(benchmark::State &state)
{
    FdTable t;
    std::vector<int> fds;
    fds.reserve(256);
    for (int i = 0; i < 256; ++i)
        fds.push_back(t.alloc());
    std::size_t i = 0;
    for (auto _ : state) {
        t.free(fds[i % 256]);
        fds[i % 256] = t.alloc();
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FdTableAllocFree);

void
BM_RfdHash(benchmark::State &state)
{
    ReceiveFlowDeliver rfd(24);
    Port p = 1024;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rfd.hash(p));
        ++p;
    }
}
BENCHMARK(BM_RfdHash);

void
BM_RfdClassify(benchmark::State &state)
{
    ReceiveFlowDeliver rfd(24);
    Packet p;
    p.tuple = FiveTuple{1, 2, 80, 40000};
    for (auto _ : state)
        benchmark::DoNotOptimize(rfd.classify(p, nullptr));
}
BENCHMARK(BM_RfdClassify);

void
BM_NicClassifyRss(benchmark::State &state)
{
    NicConfig cfg;
    cfg.numQueues = 24;
    Nic nic(cfg);
    Packet p;
    p.tuple = FiveTuple{1, 2, 1024, 80};
    for (auto _ : state) {
        ++p.tuple.sport;
        benchmark::DoNotOptimize(nic.classifyRx(p));
    }
}
BENCHMARK(BM_NicClassifyRss);

void
BM_NicClassifyFdirAtr(benchmark::State &state)
{
    NicConfig cfg;
    cfg.numQueues = 24;
    cfg.fdirAtr = true;
    cfg.atrSampleRate = 4;
    Nic nic(cfg);
    Packet out;
    out.tuple = FiveTuple{2, 1, 80, 1024};
    Packet in;
    in.tuple = out.tuple.reversed();
    for (auto _ : state) {
        nic.noteTx(out, 5);
        benchmark::DoNotOptimize(nic.classifyRx(in));
    }
}
BENCHMARK(BM_NicClassifyFdirAtr);

} // anonymous namespace

BENCHMARK_MAIN();
