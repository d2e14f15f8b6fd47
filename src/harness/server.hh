/**
 * @file
 * The per-server lifecycle both testbeds share. Testbed runs one server
 * machine on a flat wire; FleetTestbed runs N of them (and restarts them
 * as fresh generations) behind balancers. Either way a server is built,
 * marked, measured and totalled by the code here:
 *
 *  - buildServer() / clientConfig(): Machine + application + admission
 *    gate, and the client fleet that drives them;
 *  - ServerWindow: one server's window counters, taken as a mark at a
 *    window boundary and subtracted into the window's delta;
 *  - collectRun() / fillWindow() / addLiveServer() / addRunTotals():
 *    the ExperimentResult blocks every testbed fills the same way.
 */

#ifndef FSIM_HARNESS_SERVER_HH
#define FSIM_HARNESS_SERVER_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/app_base.hh"
#include "app/backend.hh"
#include "app/http_load.hh"
#include "app/machine.hh"
#include "check/invariants.hh"
#include "overload/admission.hh"
#include "sync/lock_registry.hh"
#include "trace/phase_accounting.hh"

namespace fsim
{

struct ExperimentConfig;
struct ExperimentResult;

/** One-way latency of the testbed's flat wire, and of the fleet
 *  fabric's routes that no link covers (proxy <-> backends). */
constexpr Tick kWireDelay = ticksFromUsec(50);

/** One server machine: kernel + cores, its application, and the
 *  admission gate in front of the application. */
struct Server
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<AppBase> app;
    /** Null unless the machine config enables overload control. */
    std::unique_ptr<AdmissionController> admission;
};

/** The ideal backend tier of haproxy runs (null for nginx), attached at
 *  10.1.0.1 onward; @p addrs receives its addresses. */
std::unique_ptr<BackendPool> buildBackends(EventQueue &eq, Wire &wire,
                                           const ExperimentConfig &cfg,
                                           std::vector<IpAddr> &addrs);

/** Build and start cfg.app on a Machine of config @p mc attached to
 *  @p link; a proxy forwards to @p backendAddrs. */
Server buildServer(EventQueue &eq, Wire &link, const ExperimentConfig &cfg,
                   const MachineConfig &mc,
                   const std::vector<IpAddr> &backendAddrs);

/** The client fleet of cfg's workload, aimed at @p addrs : @p port. */
HttpLoad::Config clientConfig(const ExperimentConfig &cfg,
                              std::vector<IpAddr> addrs, Port port,
                              int concurrency);

/** Register the standard (and, with an admission gate, the overload)
 *  invariants of @p s. */
void registerServerInvariants(InvariantRegistry &checks, Server &s,
                              HttpLoad &load, Wire &wire);

/** Saturating per-class lock-stat delta: a counter that went backwards
 *  (a restarted machine) reads 0. Classes new in @p after are kept. */
std::map<std::string, LockClassStats> lockDelta(
    const std::map<std::string, LockClassStats> &before,
    const std::map<std::string, LockClassStats> &after);

/**
 * One server's window counters. read() takes them at a window boundary;
 * since() subtracts an earlier mark into the window's delta, saturating
 * at zero; += sums the deltas of several servers.
 */
struct ServerWindow
{
    PhaseSnapshot phases;
    std::map<std::string, LockClassStats> locks;
    /** A mark holds the full stats; a delta only kWindowCounters. */
    KernelStats kernel;
    std::uint64_t served = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::size_t spansCompleted = 0;

    /** The KernelStats counters a window reports. */
    static constexpr std::uint64_t KernelStats::*kWindowCounters[] = {
        &KernelStats::rxPackets,      &KernelStats::steeredPackets,
        &KernelStats::slowPathAccepts, &KernelStats::activePktLocal,
        &KernelStats::activePktTotal, &KernelStats::synRetransmits,
        &KernelStats::synCookiesSent, &KernelStats::synCookiesValidated,
        &KernelStats::acceptQueueRsts,
    };

    /** @p s's counters now. */
    static ServerWindow read(const Server &s);
    /** Start a window on @p s: reset its utilization marks, read it. */
    static ServerWindow start(Server &s);

    ServerWindow since(const ServerWindow &before) const;
    /** Counters and lock counters add; phase rows append per core. */
    ServerWindow &operator+=(const ServerWindow &o);
};

/** Lock-stat deltas of one measurement sub-window. */
struct LockWindow
{
    Tick start = 0;
    Tick end = 0;
    std::map<std::string, LockClassStats> locks;
    /** Client connections completed in this sub-window. */
    std::uint64_t completed = 0;
    /** completed / sub-window seconds: the goodput-over-time curve the
     *  resilience benchmark plots. */
    double goodput = 0.0;
    /** @name Kernel counter deltas (fault visibility) */
    /** @{ */
    std::uint64_t synRetransmits = 0;
    std::uint64_t synCookiesSent = 0;
    std::uint64_t synCookiesValidated = 0;
    std::uint64_t acceptQueueRsts = 0;
    /** @} */
};

/** Testbed-wide window marks: the client fleet and the DES core. */
struct RunMark
{
    Tick tick = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t eventsRun = 0;
    std::uint64_t eventsScheduled = 0;

    /** Start a window now (also marks the client's own window). */
    static RunMark take(const EventQueue &eq, HttpLoad &load);
};

/**
 * Advance @p eq to @p limit, interleaving invariant passes every
 * cfg.checkIntervalSec when cfg.checkLevel == kPeriodic. Slicing is
 * behavior-neutral: events execute at identical ticks either way.
 */
void runChecked(EventQueue &eq, InvariantRegistry &checks,
                const ExperimentConfig &cfg, Tick limit);

/**
 * Start a result at the end of a window: an invariant pass (unless
 * kOff) and its report, client throughput, failures and latency, the
 * window span and DES-core counts, and the overload spec.
 */
void collectRun(ExperimentResult &r, const RunMark &mark,
                const EventQueue &eq, const HttpLoad &load,
                const ExperimentConfig &cfg, InvariantRegistry &checks);

/** Fill the window blocks of @p r (locks, phases, cache, packet path)
 *  from a window delta over @p cores cores; after collectRun(). */
void fillWindow(ExperimentResult &r, ServerWindow d, int cores);

/** Append a running server's per-core utilization to @p r; on an
 *  untraced machine, also assert that the span log never allocated. */
void addLiveServer(ExperimentResult &r, const Server &s);

/** Add @p s's run totals to the overload and connection-census blocks;
 *  only an @p up server reports its current pressure level. */
void addRunTotals(ExperimentResult &r, const Server &s, bool up);

/**
 * Run @p measure of simulated time from now in @p windows slices. Each
 * slice's LockWindow gets its span and client goodput; @p slice then
 * adds what the testbed measures per slice.
 */
template <typename Bed, typename Slice>
std::vector<LockWindow>
measureWindows(Bed &bed, int windows, Tick measure, Slice slice)
{
    EventQueue &eq = bed.eventQueue();
    const int wins = std::max(1, windows);
    const Tick begin = eq.now();
    std::vector<LockWindow> out;
    std::uint64_t completedPrev = bed.load().completed();
    for (int w = 0; w < wins; ++w) {
        LockWindow lw;
        lw.start = eq.now();
        bed.runUntilChecked(begin + measure * (w + 1) / wins);
        lw.end = eq.now();
        lw.completed = bed.load().completed() - completedPrev;
        completedPrev = bed.load().completed();
        const double wsec = secondsFromTicks(lw.end - lw.start);
        lw.goodput = wsec > 0.0 ? static_cast<double>(lw.completed) / wsec
                                : 0.0;
        slice(lw);
        out.push_back(std::move(lw));
    }
    return out;
}

} // namespace fsim

#endif // FSIM_HARNESS_SERVER_HH
