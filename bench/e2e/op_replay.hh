/**
 * @file
 * Replay of a recorded EventQueue op stream through a bare queue (the
 * technique of bench/bench_sim_core.cc). The stream holds the window's
 * inter-event horizons and schedule/dispatch interleaving, so the replay
 * times the DES core alone on the workload's real op mix; the live
 * window minus the replay is the model's share of host time.
 */

#ifndef FSIM_BENCH_E2E_OP_REPLAY_HH
#define FSIM_BENCH_E2E_OP_REPLAY_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"

namespace fsim
{

struct OpReplay
{
    std::uint64_t executed = 0;
    double wall = 0.0;
};

/**
 * Replay @p ops once through a fresh EventQueue. Dispatch counts are
 * capped by the events actually pending, since the recording run's
 * pending population at the window edge is not reproduced. Deltas in
 * the wire-delay band [2^16, 2^20) ticks schedule a packet-sized
 * closure, the rest a pointer-sized one, matching the live closure mix.
 */
inline OpReplay
replayOps(const std::vector<EventQueue::SchedOp> &ops)
{
    struct WirePayload
    {
        std::uint64_t *sink;
        unsigned char packet[48];
    };
    EventQueue q;
    std::uint64_t fired = 0;
    std::uint64_t pending = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const EventQueue::SchedOp &op : ops) {
        const std::uint64_t runs = op.runs < pending ? op.runs : pending;
        for (std::uint64_t r = 0; r < runs; ++r)
            q.runOne();
        pending -= runs;
        if (op.delta >= (Tick{1} << 16) && op.delta < (Tick{1} << 20)) {
            WirePayload p{&fired, {}};
            q.schedule(q.now() + op.delta, [p] { ++*p.sink; });
        } else {
            q.schedule(q.now() + op.delta, [&fired] { ++fired; });
        }
        ++pending;
    }
    OpReplay out;
    out.wall = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    out.executed = q.executed();
    return out;
}

} // namespace fsim

#endif // FSIM_BENCH_E2E_OP_REPLAY_HH
