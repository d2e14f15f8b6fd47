#include "check/scenario.hh"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "fault/fault_plan.hh"
#include "fleet/fleet.hh"
#include "harness/calibration.hh"
#include "sim/logging.hh"
#include "sim/strict_parse.hh"

namespace fsim
{

ExperimentConfig
Scenario::toConfig() const
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.machine.cores = cores;
    cfg.machine.seed = seed;
    cfg.machine.traceEnabled = traceEnabled;
    cfg.machine.costs = uma ? umaCosts() : calibratedCosts();
    if (kernel == "base2632") {
        cfg.machine.kernel = KernelConfig::base2632();
    } else if (kernel == "linux313") {
        cfg.machine.kernel = KernelConfig::linux313();
    } else if (kernel == "fastsocket") {
        cfg.machine.kernel = KernelConfig::fastsocket();
    } else {
        // "custom": feature bits on top of the 2.6.32 baseline, the
        // Table 1 ablation style.
        KernelConfig kc = KernelConfig::base2632();
        kc.fastVfs = fastVfs;
        kc.localListen = localListen;
        kc.rfd = rfd;
        kc.localEstablished = localEstablished;
        cfg.machine.kernel = kc;
    }
    cfg.machine.kernel.twReuse = twReuse;
    cfg.machine.kernel.twRecycle = twRecycle;
    if (ephemeralPorts > 0)
        cfg.machine.kernel.ephemeralPortHi = static_cast<Port>(
            cfg.machine.kernel.ephemeralPortLo + ephemeralPorts - 1);
    cfg.longLivedPermille = longLivedPermille;
    cfg.longLivedRequests = longLivedRequests;
    cfg.longLivedThink = ticksFromUsec(
        static_cast<std::uint64_t>(longLivedThinkMsec * 1000.0));
    cfg.clientPortSpan = clientPortSpan;
    if (clientIps > 0)
        cfg.clientIps = clientIps;
    cfg.backendKeepAlive = backendKeepAlive;
    cfg.concurrencyPerCore = concurrencyPerCore;
    cfg.requestsPerConn = requestsPerConn;
    cfg.maxConns = maxConns;
    cfg.lossRate = lossRate;
    cfg.clientTimeout = ticksFromSeconds(clientTimeoutSec);
    cfg.listenBacklog = listenBacklog;
    cfg.acceptMutex = acceptMutex;
    cfg.checkLevel = CheckLevel::kPeriodic;
    if (synCookies)
        cfg.machine.kernel.synCookies = true;
    if (synBacklog > 0)
        cfg.machine.kernel.synBacklog = synBacklog;
    cfg.clientRtoBase = ticksFromUsec(
        static_cast<std::uint64_t>(clientRtoMsec * 1000.0));
    if (!faultPlan.empty()) {
        std::string err;
        bool ok = parseFaultPlan(faultPlan, cfg.faults, err);
        fsim_assert(ok);   // validity was enforced at parse/generate time
        fsim_assert(clientTimeoutSec > 0.0);   // so stuck conns drain
        // A flood fills a bounded SYN queue with half-opens nobody will
        // ever complete; the embryonic reaper is what lets it drain.
        if (cfg.faults.has(FaultKind::kSynFlood))
            cfg.machine.kernel.synRcvdJiffies = 300;
    }
    return cfg;
}

Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    s.seed = rng.next() | 1;   // never the all-zero degenerate seed
    s.cores = 1 + static_cast<int>(rng.range(8));
    s.app = rng.chance(0.5) ? AppKind::kHaproxy : AppKind::kNginx;

    switch (rng.range(4)) {
      case 0: s.kernel = "base2632"; break;
      case 1: s.kernel = "linux313"; break;
      case 2: s.kernel = "fastsocket"; break;
      default:
        s.kernel = "custom";
        s.fastVfs = rng.chance(0.5);
        s.localListen = rng.chance(0.5);
        s.rfd = rng.chance(0.5);
        // Feature lattice: E needs complete locality (L and R).
        s.localEstablished = s.localListen && s.rfd && rng.chance(0.5);
        break;
    }

    s.concurrencyPerCore = 8 + static_cast<int>(rng.range(93));
    s.requestsPerConn = 1 + static_cast<int>(rng.range(4));
    s.maxConns = 200 + rng.range(1801);

    // Connection-lifetime pressure. Mixed lifetimes only make sense
    // against the web server (the proxy tears each session down after
    // one exchange); TIME_WAIT tuple collisions and ephemeral-port
    // exhaustion each get their own dice.
    if (s.app == AppKind::kNginx && rng.chance(0.3)) {
        s.longLivedPermille = 100 + static_cast<int>(rng.range(801));
        s.longLivedRequests = 2 + static_cast<int>(rng.range(3));
        s.longLivedThinkMsec = 0.2 + rng.uniform() * 3.0;
    }
    if (s.app == AppKind::kNginx && rng.chance(0.2)) {
        // Colliding four-tuples: fresh SYNs land on lingering entries.
        // The conservative path drops those SYNs, so the client RTO
        // retry is load-bearing for drain; recycle (half the time)
        // admits them instead.
        s.clientPortSpan = 8 << rng.range(3);
        s.clientIps = 1 + static_cast<int>(rng.range(4));
        s.clientRtoMsec = 2.0 + rng.uniform() * 10.0;
        s.twRecycle = rng.chance(0.5);
    }
    if (s.app == AppKind::kHaproxy && rng.chance(0.2)) {
        // Active-connect port pressure: keep-alive backends make the
        // proxy the active closer, and a small ephemeral range turns
        // the TIME_WAIT linger into EADDRNOTAVAIL unless reuse is on.
        s.backendKeepAlive = true;
        s.ephemeralPorts = 64 << rng.range(3);
        s.twReuse = rng.chance(0.5);
    }
    if (rng.chance(0.3)) {
        s.lossRate = rng.uniform() * 0.05;
        // Loss demands a give-up timer or stuck connections never drain.
        s.clientTimeoutSec = 0.05 + rng.uniform() * 0.1;
    }
    static const std::size_t kBacklogs[] = {0, 8, 32, 512};
    s.listenBacklog = kBacklogs[rng.range(4)];
    s.uma = rng.chance(0.5);
    s.acceptMutex = rng.chance(0.25);
    s.traceEnabled = rng.chance(0.75);

    if (rng.chance(0.25)) {
        // Fault plans: 1-2 scheduled windows early in the run, so a
        // bounded workload still sees them. Backend faults only make
        // sense against the proxy.
        FaultPlan plan;
        plan.seed = rng.next() | 1;
        int n = 1 + static_cast<int>(rng.range(2));
        for (int i = 0; i < n; ++i) {
            FaultEvent ev;
            ev.startSec = 0.002 + rng.uniform() * 0.03;
            ev.endSec = ev.startSec + 0.005 + rng.uniform() * 0.03;
            int pick = static_cast<int>(
                rng.range(s.app == AppKind::kHaproxy ? 7 : 5));
            switch (pick) {
              case 0:
                ev.kind = FaultKind::kLossBurst;
                ev.rate = 0.05 + rng.uniform() * 0.4;
                break;
              case 1:
                ev.kind = FaultKind::kReorder;
                ev.rate = 0.05 + rng.uniform() * 0.4;
                ev.jitterUsec = 20.0 + rng.uniform() * 400.0;
                break;
              case 2:
                ev.kind = FaultKind::kDuplicate;
                ev.rate = 0.05 + rng.uniform() * 0.3;
                break;
              case 3:
                ev.kind = FaultKind::kSynFlood;
                ev.rate = 50000.0 + rng.uniform() * 200000.0;
                s.synBacklog = 128u << rng.range(3);
                s.synCookies = rng.chance(0.5);
                break;
              case 4:
                ev.kind = FaultKind::kAtrShrink;
                ev.tableSize = 16u << rng.range(4);
                break;
              case 5:
                ev.kind = FaultKind::kBackendSlow;
                ev.factor = 2.0 + rng.uniform() * 6.0;
                ev.target = rng.chance(0.5) ? -1 : 0;
                break;
              default:
                ev.kind = FaultKind::kBackendDown;
                ev.target = rng.chance(0.5) ? -1 : 0;
                break;
            }
            plan.events.push_back(ev);
        }
        s.faultPlan = serializeFaultPlan(plan);
        // Any fault can strand a connection; the give-up timer (and,
        // half the time, client retransmission) is the way out.
        if (s.clientTimeoutSec <= 0.0)
            s.clientTimeoutSec = 0.05 + rng.uniform() * 0.1;
        if (rng.chance(0.5))
            s.clientRtoMsec = 2.0 + rng.uniform() * 10.0;
    }

    if (rng.chance(0.15)) {
        // Fleet tier: the same bounded workload steered across 2-4
        // server machines by 1-2 L4 balancers, optionally with one
        // fleet-orchestration event (crash, rolling restart, VIP loss).
        s.fleetMachines = 2 + static_cast<int>(rng.range(3));
        s.fleetBalancers = 1 + static_cast<int>(rng.range(2));
        s.fleetPolicy = rng.chance(0.25) ? "rr" : "chash";
        // Half the fleet runs arm the observability layer too: the
        // double-run then proves SLO burn accounting deterministic
        // (incidents fold into the fingerprint) and per-chunk metric
        // sampling perturbation-free.
        s.sloMetrics = rng.chance(0.5);
        // N machines multiply the event volume; keep the run bounded.
        s.cores = std::min(s.cores, 4);
        s.maxConns = std::min<std::uint64_t>(s.maxConns, 1200);
        // Crashes and failover strand in-flight connections across a
        // real fabric: the give-up timer and the SYN retransmit are
        // what let a closed loop drain past a blackholed window.
        if (s.clientTimeoutSec <= 0.0)
            s.clientTimeoutSec = 0.04 + rng.uniform() * 0.06;
        if (s.clientRtoMsec <= 0.0)
            s.clientRtoMsec = 3.0 + rng.uniform() * 9.0;
        if (rng.chance(0.6)) {
            FaultPlan plan;
            if (!s.faultPlan.empty()) {
                std::string perr;
                bool ok = parseFaultPlan(s.faultPlan, plan, perr);
                fsim_assert(ok);
            } else {
                plan.seed = rng.next() | 1;
            }
            FaultEvent ev;
            ev.startSec = 0.002 + rng.uniform() * 0.02;
            ev.endSec = ev.startSec + 0.004 + rng.uniform() * 0.02;
            // lb_crash only when a peer exists to adopt the VIP;
            // otherwise every client of that VIP is stuck until restore.
            int pick = static_cast<int>(
                rng.range(s.fleetBalancers > 1 ? 5 : 4));
            switch (pick) {
              case 0:
                ev.kind = FaultKind::kMachineCrash;
                ev.target =
                    static_cast<int>(rng.range(s.fleetMachines));
                ev.mode = rng.chance(0.5)
                              ? FaultEvent::CrashMode::kRst
                              : FaultEvent::CrashMode::kBlackhole;
                break;
              case 1:
                ev.kind = FaultKind::kRollingRestart;
                ev.drainMsec = 2.0 + rng.uniform() * 8.0;
                ev.downMsec = 1.0 + rng.uniform() * 3.0;
                break;
              case 2:
                // Gray machine: CPU slowdown + lossy/laggy NIC, with
                // a flapping variant. factor stays > 1 so the event
                // can never degenerate into the parser's no-op case.
                ev.kind = FaultKind::kMachineDegrade;
                ev.target =
                    static_cast<int>(rng.range(s.fleetMachines));
                ev.factor = 1.5 + rng.uniform() * 3.0;
                ev.rate = rng.uniform() * 0.15;
                ev.jitterUsec = 100.0 + rng.uniform() * 700.0;
                if (rng.chance(0.4))
                    ev.flapMsec = 2.0 + rng.uniform() * 5.0;
                break;
              case 3:
                // Partition one balancer from one machine: always two
                // distinct groups, and indices stay inside the fleet
                // (resolveGroup aborts on a token naming nothing).
                ev.kind = FaultKind::kNetPartition;
                ev.partA = "lb" + std::to_string(
                    rng.range(s.fleetBalancers));
                ev.partB = "m" + std::to_string(
                    rng.range(s.fleetMachines));
                break;
              default:
                ev.kind = FaultKind::kLbCrash;
                ev.target =
                    static_cast<int>(rng.range(s.fleetBalancers));
                break;
            }
            plan.events.push_back(ev);
            s.faultPlan = serializeFaultPlan(plan);
        }
    }
    return s;
}

namespace
{

/** Typed pointer to the Scenario member one .scn key sets. */
using Member =
    std::variant<int Scenario::*, std::uint64_t Scenario::*,
                 double Scenario::*, bool Scenario::*,
                 std::string Scenario::*, AppKind Scenario::*>;

/** When serializeScenario() writes a key. */
enum class Emit
{
    kAlways,
    kNonDefault,    //!< only when it differs from Scenario{}
    kCustomKernel,  //!< the feature bits, when kernel == "custom"
    kLongLived,     //!< the long-lived trio, when longLivedPermille > 0
    kFleet,         //!< the fleet block, when fleetMachines > 0
};

/** Single-field shrink step. Moves that must change several fields
 *  together stay in shrinkCandidates(). */
enum class Step
{
    kNone,
    kHalve,       //!< halve, never below `floor`
    kHalveOrDec,  //!< as kHalve, plus one below when that differs
    kDrop,        //!< straight to the lowest allowed value
};

/** One .scn key: the member it sets, what it accepts, when it is
 *  written, and how it shrinks on its own. */
struct Field
{
    const char *key;
    Member member;
    double lo = 0.0;   //!< numeric range, inclusive (bools: [0, 1])
    double hi = 0.0;
    std::vector<std::string> choices = {};   //!< allowed text, lowest first
    Emit emit = Emit::kAlways;
    Step step = Step::kNone;
    double floor = 0.0;   //!< kHalve / kHalveOrDec floor
};

const Scenario kDefaults;   //!< what Emit::kNonDefault compares against

/** Every key, in the order serializeScenario() writes them. The key is
 *  the member's own name. */
#define KEY(m) .key = #m, .member = &Scenario::m
const Field kScenarioFields[] = {
    {KEY(seed), .hi = 0x1p64},   // any 64-bit value
    {KEY(cores), .lo = 1, .hi = 64, .step = Step::kHalveOrDec, .floor = 1},
    {KEY(app), .choices = {"nginx", "haproxy"}},   // AppKind order
    {KEY(kernel), .choices = {"base2632", "linux313", "fastsocket", "custom"}},
    {KEY(fastVfs), .hi = 1, .emit = Emit::kCustomKernel},
    {KEY(localListen), .hi = 1, .emit = Emit::kCustomKernel},
    {KEY(rfd), .hi = 1, .emit = Emit::kCustomKernel},
    {KEY(localEstablished), .hi = 1, .emit = Emit::kCustomKernel},
    {KEY(concurrencyPerCore), .lo = 1, .hi = 100000, .step = Step::kHalve,
     .floor = 4},
    {KEY(requestsPerConn), .lo = 1, .hi = 1000, .step = Step::kDrop},
    {KEY(maxConns), .lo = 1, .hi = 1e9, .step = Step::kHalve, .floor = 50},
    {KEY(lossRate), .hi = 1},
    {KEY(clientTimeoutSec), .hi = 3600},
    {KEY(listenBacklog), .hi = 1 << 20, .step = Step::kDrop},
    {KEY(uma), .hi = 1, .step = Step::kDrop},
    {KEY(acceptMutex), .hi = 1, .step = Step::kDrop},
    {KEY(traceEnabled), .hi = 1, .step = Step::kDrop},
    {KEY(maxSimSec), .lo = 1e-3, .hi = 3600},
    {KEY(longLivedPermille), .hi = 1000, .emit = Emit::kLongLived},
    {KEY(longLivedRequests), .lo = 1, .hi = 1000, .emit = Emit::kLongLived},
    {KEY(longLivedThinkMsec), .hi = 10000, .emit = Emit::kLongLived},
    {KEY(clientPortSpan), .hi = 60000, .emit = Emit::kNonDefault},
    {KEY(clientIps), .hi = 1 << 16, .emit = Emit::kNonDefault},
    {KEY(twReuse), .hi = 1, .emit = Emit::kNonDefault},
    {KEY(twRecycle), .hi = 1, .emit = Emit::kNonDefault},
    {KEY(backendKeepAlive), .hi = 1, .emit = Emit::kNonDefault},
    {KEY(ephemeralPorts), .hi = 28232, .emit = Emit::kNonDefault},
    {KEY(fleetMachines), .hi = 8, .emit = Emit::kFleet},
    {KEY(fleetBalancers), .lo = 1, .hi = 4, .emit = Emit::kFleet},
    {KEY(fleetPolicy), .choices = {"chash", "rr"}, .emit = Emit::kFleet,
     .step = Step::kDrop},
    {KEY(sloMetrics), .hi = 1, .emit = Emit::kNonDefault, .step = Step::kDrop},
    {KEY(faultPlan), .emit = Emit::kNonDefault},
    {KEY(synCookies), .hi = 1, .emit = Emit::kNonDefault},
    {KEY(synBacklog), .hi = 1 << 20, .emit = Emit::kNonDefault},
    {KEY(clientRtoMsec), .hi = 10000, .emit = Emit::kNonDefault},
};
#undef KEY

template <typename T>
using MemberOf = std::remove_cvref_t<decltype(std::declval<Scenario>().*
                                              std::declval<T>())>;

bool
written(const Field &f, const Scenario &s)
{
    switch (f.emit) {
      case Emit::kAlways:
        return true;
      case Emit::kNonDefault:
        return std::visit([&s](auto m) { return s.*m != kDefaults.*m; },
                          f.member);
      case Emit::kCustomKernel:
        return s.kernel == "custom";
      case Emit::kLongLived:
        return s.longLivedPermille > 0;
      case Emit::kFleet:
        return s.fleetMachines > 0;
    }
    return true;
}

/** Set @p f's member from @p val; false if @p val is malformed or
 *  outside the field's range or value list. */
bool
assign(const Field &f, const std::string &val, Scenario &s)
{
    return std::visit(
        [&](auto m) {
            using T = MemberOf<decltype(m)>;
            if constexpr (std::is_same_v<T, std::string> ||
                          std::is_same_v<T, AppKind>) {
                auto it = std::find(f.choices.begin(), f.choices.end(), val);
                if (!f.choices.empty() && it == f.choices.end())
                    return false;
                if constexpr (std::is_same_v<T, AppKind>)
                    s.*m = static_cast<AppKind>(it - f.choices.begin());
                else
                    s.*m = val;
                return true;
            } else {
                // A bool parses as an int; its [0, 1] range does the rest.
                std::conditional_t<std::is_same_v<T, bool>, int, T> v{};
                bool ok = false;
                if constexpr (std::is_same_v<T, double>)
                    ok = strictDouble(val, v);
                else if constexpr (std::is_same_v<T, std::uint64_t>)
                    ok = strictU64(val, v);
                else
                    ok = strictInt(val, v);
                const double num = static_cast<double>(v);
                if (!ok || num < f.lo || num > f.hi)
                    return false;
                s.*m = static_cast<T>(v);
                return true;
            }
        },
        f.member);
}

/** What @p f accepts, for error messages. */
std::string
allowed(const Field &f)
{
    std::ostringstream os;
    if (!f.choices.empty()) {
        os << "one of ";
        for (const std::string &c : f.choices)
            os << (&c == &f.choices.front() ? "" : "|") << c;
    } else {
        os << "a number in [" << f.lo << ", " << f.hi << "]";
    }
    return os.str();
}

/** Append @p f's single-field shrink candidates of @p s to @p out. */
void
shrinkField(const Field &f, const Scenario &s, std::vector<Scenario> &out)
{
    if (f.step == Step::kNone || !written(f, s))
        return;
    std::visit(
        [&](auto m) {
            using T = MemberOf<decltype(m)>;
            auto push = [&](T v) {
                if (v == s.*m)
                    return;
                out.push_back(s);
                out.back().*m = std::move(v);
            };
            if constexpr (std::is_same_v<T, std::string>) {
                push(f.choices.front());
            } else if constexpr (std::is_arithmetic_v<T>) {
                const T v = s.*m;
                const T floor = static_cast<T>(f.floor);
                if (f.step == Step::kDrop) {
                    push(static_cast<T>(f.lo));
                } else if (v > floor) {
                    const T half = std::max<T>(floor, v / 2);
                    push(half);
                    if (f.step == Step::kHalveOrDec && v - 1 != half)
                        push(v - 1);
                }
            }
        },
        f.member);
}

/** The constraints that span several fields (randomScenario() builds
 *  them in); single-field ranges were checked as each key was read. */
bool
crossFieldValid(const Scenario &s, std::string &err)
{
    if (s.localEstablished && !(s.localListen && s.rfd)) {
        err = "localEstablished requires localListen and rfd";
        return false;
    }
    if (s.lossRate > 0.0 && s.clientTimeoutSec <= 0.0) {
        err = "lossRate > 0 requires clientTimeoutSec > 0";
        return false;
    }
    if (s.clientPortSpan > 0 && s.clientRtoMsec <= 0.0 && !s.twRecycle) {
        err = "clientPortSpan > 0 requires clientRtoMsec > 0 or "
              "twRecycle (TIME_WAIT SYN drops need a retry to drain)";
        return false;
    }
    if (s.sloMetrics && s.fleetMachines <= 0) {
        err = "sloMetrics requires fleetMachines > 0";
        return false;
    }
    if (s.faultPlan.empty())
        return true;
    FaultPlan plan;
    std::string perr;
    if (!parseFaultPlan(s.faultPlan, plan, perr)) {
        err = "faultPlan: " + perr;
        return false;
    }
    if (s.clientTimeoutSec <= 0.0) {
        err = "faultPlan requires clientTimeoutSec > 0";
        return false;
    }
    // Fleet orchestration events only mean something on the fleet
    // topology, and their targets must exist (the orchestrator asserts
    // the range; resolveGroup aborts on a group token naming nothing).
    auto groupInRange = [&s](const std::string &tok) {
        if (tok == "clients" || tok == "lbs" || tok == "ms")
            return true;
        int idx = 0;
        if (tok.rfind("lb", 0) == 0)
            return strictInt(tok.substr(2), idx) && idx < s.fleetBalancers;
        if (tok.rfind("m", 0) == 0)
            return strictInt(tok.substr(1), idx) && idx < s.fleetMachines;
        return false;
    };
    for (const FaultEvent &ev : plan.events) {
        if (!isFleetKind(ev.kind))
            continue;
        if (s.fleetMachines <= 0) {
            err = "faultPlan: fleet events require fleetMachines > 0";
            return false;
        }
        if (ev.kind == FaultKind::kMachineCrash &&
            ev.target >= s.fleetMachines) {
            err = "faultPlan: machine_crash target out of range";
            return false;
        }
        if (ev.kind == FaultKind::kMachineDegrade &&
            (ev.target < 0 || ev.target >= s.fleetMachines)) {
            err = "faultPlan: machine_degrade target out of range";
            return false;
        }
        if (ev.kind == FaultKind::kLbCrash &&
            ev.target >= s.fleetBalancers) {
            err = "faultPlan: lb_crash target out of range";
            return false;
        }
        if (ev.kind == FaultKind::kNetPartition &&
            (!groupInRange(ev.partA) || !groupInRange(ev.partB))) {
            err = "faultPlan: net_partition group names nothing in "
                  "this fleet";
            return false;
        }
    }
    return true;
}

} // anonymous namespace

std::string
serializeScenario(const Scenario &s)
{
    std::ostringstream os;
    // Doubles must round-trip bit-exactly: a reproducer that perturbs
    // lossRate in the 17th digit may no longer reproduce.
    os.precision(17);
    os << "# fsim fuzz scenario (replay: fuzz_scenarios --replay=FILE)\n";
    for (const Field &f : kScenarioFields) {
        if (!written(f, s))
            continue;
        os << f.key << " = ";
        std::visit(
            [&](auto m) {
                if constexpr (std::is_same_v<MemberOf<decltype(m)>, AppKind>)
                    os << f.choices[static_cast<std::size_t>(s.*m)];
                else
                    os << s.*m;
            },
            f.member);
        os << "\n";
    }
    return os.str();
}

bool
parseScenario(const std::string &text, Scenario &out, std::string &err)
{
    Scenario s;   // start from defaults; keys override
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        const std::string where = "line " + std::to_string(lineno) + ": ";
        std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
            err = where + "expected key = value";
            return false;
        }
        std::string key = trim(t.substr(0, eq));
        std::string val = trim(t.substr(eq + 1));
        if (key.empty() || val.empty()) {
            err = where + "empty key or value";
            return false;
        }
        const Field *f = nullptr;
        for (const Field &cand : kScenarioFields)
            if (key == cand.key)
                f = &cand;
        if (!f) {
            err = where + "unknown key '" + key + "'";
            return false;
        }
        if (!assign(*f, val, s)) {
            err = where + "bad value '" + val + "' for " + key + " (want " +
                  allowed(*f) + ")";
            return false;
        }
    }
    if (!crossFieldValid(s, err))
        return false;
    out = s;
    return true;
}

namespace
{

/** Drive @p bed in 10 ms chunks until the bounded load drains or the
 *  sim-time cap, calling @p onChunk(start, end) after each chunk. */
template <typename Bed, typename OnChunk>
bool
driveUntilDrained(Bed &bed, const Scenario &s, OnChunk onChunk)
{
    EventQueue &eq = bed.eventQueue();
    HttpLoad &load = bed.load();
    const Tick cap = ticksFromSeconds(s.maxSimSec);
    const Tick chunk = ticksFromSeconds(0.01);
    bed.startLoad();
    while (eq.now() < cap &&
           (load.inFlight() > 0 || load.started() < s.maxConns)) {
        const Tick wstart = eq.now();
        bed.runUntilChecked(std::min(cap, eq.now() + chunk));
        onChunk(wstart, eq.now());
    }
    return load.inFlight() == 0 && load.started() >= s.maxConns;
}

ScenarioRun
runOnFleet(const Scenario &s)
{
    FleetConfig fc;
    fc.base = s.toConfig();
    fc.serverMachines = s.fleetMachines;
    fc.balancers = s.fleetBalancers;
    bool ok = L4Balancer::policyFromName(s.fleetPolicy, fc.policy);
    fsim_assert(ok);   // validity was enforced at parse time
    fc.sloEnabled = s.sloMetrics;
    // Long-lived think pauses must stay well inside the balancer's
    // idle-flow GC horizon or mid-conversation flows get retired.
    fc.flowIdleTimeoutMsec = std::max(fc.flowIdleTimeoutMsec,
                                      4.0 * s.longLivedThinkMsec + 100.0);
    FleetTestbed bed(fc);
    ScenarioRun r;
    // With the observability layer armed, every chunk boundary also
    // feeds the SLO tracker and samples the metrics registry: the
    // fuzzer's own sub-window clock, since run() is bypassed.
    r.drained = driveUntilDrained(bed, s, [&](Tick start, Tick end) {
        if (s.sloMetrics)
            bed.sampleObservability(start, end);
    });
    // No quiesce leak pass on the fleet: probe and flow-GC timers
    // self-reschedule forever (runAll would never return), and a
    // crashed generation legitimately strands its server TCBs.
    bed.checks().runAll(bed.eventQueue().now());
    if (s.traceEnabled) {
        // Stitching invariant: collect() reconciles every machine span
        // against the client-minted trace ids. After a full drain no
        // successful request may be missing its server span, no id may
        // be born twice, and no span may disagree with its balancer
        // flow's byte accounting.
        ExperimentResult fr = bed.collect();
        const std::uint64_t unstitched = bed.traceLog().unstitchedOk();
        InvariantRegistry stitch;
        stitch.add("trace-stitch-lossless", [&](Tick, std::string &why) {
            if (fr.fleet.traceOrphans == 0 &&
                fr.fleet.traceDuplicates == 0 && unstitched == 0)
                return true;
            why = "orphans=" + std::to_string(fr.fleet.traceOrphans) +
                  " duplicates=" +
                  std::to_string(fr.fleet.traceDuplicates) +
                  " unstitched-ok=" + std::to_string(unstitched);
            return false;
        });
        stitch.add("trace-span-reconcile", [&](Tick, std::string &why) {
            if (fr.fleet.spanReconcileViolations == 0)
                return true;
            why = "span reconcile violations=" +
                  std::to_string(fr.fleet.spanReconcileViolations);
            return false;
        });
        stitch.runAll(bed.eventQueue().now());
        r.invariants = stitch.report();
    }
    r.fingerprint = bed.currentFingerprint();
    r.invariants.merge(bed.checks().report());
    return r;
}

} // anonymous namespace

ScenarioRun
runOnMachine(const Scenario &s)
{
    fsim_assert(s.fleetMachines == 0);
    Testbed bed(s.toConfig());

    // Quiesce (leak) checks live in their own registry: they only hold
    // once the run drains, so they must not join the periodic passes
    // bed.checks() performs mid-run. They are only meaningful when
    // every client connection runs to a clean close: under injected
    // loss or faults, abandoned handshakes legitimately strand
    // server-side TCBs until their (long) keepalive horizon, which is
    // model behavior, not a leak.
    InvariantRegistry quiesce;
    if (s.lossRate == 0.0 && s.faultPlan.empty())
        registerQuiesceInvariants(quiesce, bed.machine(), bed.load());

    EventQueue &eq = bed.eventQueue();
    ScenarioRun r;
    r.drained = driveUntilDrained(bed, s, [](Tick, Tick) {});
    r.drainTick = eq.now();
    // Let the kernel finish housekeeping (TIME_WAIT reaping, timer
    // bases going idle) so the leak checks see the true final state.
    // Bounded workloads quiesce: timer bases only reschedule their
    // jiffy tick while timers are pending.
    if (r.drained) {
        eq.runAll();
        quiesce.runAll(eq.now());
    }
    bed.checks().runAll(eq.now());
    r.fingerprint = bed.currentFingerprint();
    r.invariants = bed.checks().report();
    r.invariants.merge(quiesce.report());

    const HttpLoad &load = bed.load();
    r.started = load.started();
    r.completed = load.completed();
    r.failed = load.failed();
    r.timeouts = load.timeouts();
    r.responses = load.responses();
    r.bytesReceived = load.bytesReceived();
    r.served = bed.app().served();
    for (const auto &kv : bed.machine().locks().snapshot())
        r.lockWaitTicks += kv.second.waitTicks;
    r.busyTicks = bed.machine().cpu().totalBusyTicks();
    return r;
}

ScenarioResult
runScenario(const Scenario &s)
{
    auto runOnce = s.fleetMachines > 0 ? runOnFleet : runOnMachine;
    ScenarioRun a = runOnce(s);
    ScenarioRun b = runOnce(s);

    ScenarioResult r;
    r.drained = a.drained;
    r.fingerprint = a.fingerprint;
    r.fingerprint2 = b.fingerprint;
    r.deterministic = a.fingerprint == b.fingerprint;
    r.invariants = a.invariants;
    return r;
}

std::string
ScenarioResult::summary() const
{
    std::ostringstream os;
    if (ok()) {
        os << "ok (" << invariants.checksRun << " checks, fingerprint 0x"
           << std::hex << fingerprint << ")";
        return os.str();
    }
    if (!drained)
        os << "NOT-DRAINED ";
    if (!deterministic)
        os << "NON-DETERMINISTIC (0x" << std::hex << fingerprint
           << " vs 0x" << fingerprint2 << std::dec << ") ";
    if (!invariants.ok())
        os << invariants.summary();
    return os.str();
}

namespace
{

/** @p planText parsed; empty when there is no (valid) plan. */
FaultPlan
planOf(const std::string &planText)
{
    FaultPlan plan;
    std::string err;
    if (!planText.empty())
        parseFaultPlan(planText, plan, err);
    return plan;
}

/** Plan text minus the fleet-orchestration events ("" if none left). */
std::string
withoutFleetEvents(const std::string &planText)
{
    FaultPlan plan = planOf(planText);
    std::erase_if(plan.events,
                  [](const FaultEvent &ev) { return isFleetKind(ev.kind); });
    return serializeFaultPlan(plan);
}

/** Plan text with per-machine fleet targets clamped below @p machines:
 *  crash/degrade target indices and partition "m<s>" group tokens. */
std::string
clampFleetTargets(const std::string &planText, int machines)
{
    FaultPlan plan = planOf(planText);
    auto clampMachineTok = [machines](std::string &tok) {
        int idx = 0;
        if (tok.rfind("m", 0) == 0 && strictInt(tok.substr(1), idx))
            tok = "m" + std::to_string(std::min(idx, machines - 1));
    };
    for (FaultEvent &ev : plan.events) {
        if (ev.kind == FaultKind::kMachineCrash ||
            ev.kind == FaultKind::kMachineDegrade)
            ev.target = std::min(ev.target, machines - 1);
        if (ev.kind == FaultKind::kNetPartition) {
            clampMachineTok(ev.partA);
            clampMachineTok(ev.partB);
        }
    }
    return serializeFaultPlan(plan);
}

/** Single-step shrink candidates of @p s, most aggressive first. */
std::vector<Scenario>
shrinkCandidates(const Scenario &s)
{
    std::vector<Scenario> out;
    auto push = [&out](Scenario c) { out.push_back(std::move(c)); };

    if (s.fleetMachines > 0) {
        // Losing the whole fleet tier is the biggest simplification:
        // back to the single-machine Testbed, shedding the fleet-only
        // events (which are invalid without the tier). Then fewer
        // machines and fewer balancers; the steering policy and the
        // SLO knob shrink through the field table.
        Scenario c = s;
        c.fleetMachines = 0;
        c.fleetBalancers = 1;
        c.fleetPolicy = "chash";
        c.sloMetrics = false;   // fleet-only knob
        c.faultPlan = withoutFleetEvents(s.faultPlan);
        push(c);
        if (s.fleetMachines > 2) {
            Scenario d = s;
            d.fleetMachines = 2;
            d.faultPlan = clampFleetTargets(s.faultPlan, 2);
            push(d);
        }
        // Dropping to one balancer invalidates events that name a
        // specific balancer (lb_crash target, partition lb<k> groups).
        const FaultPlan plan = planOf(s.faultPlan);
        if (s.fleetBalancers > 1 && !plan.has(FaultKind::kLbCrash) &&
            !plan.has(FaultKind::kNetPartition)) {
            Scenario d = s;
            d.fleetBalancers = 1;
            push(d);
        }
    }
    // Single-field steps: cores, concurrency, maxConns, backlog and the
    // on/off knobs.
    for (const Field &f : kScenarioFields)
        shrinkField(f, s, out);

    if (!s.faultPlan.empty()) {
        // Drop the whole plan first, then the hardening knobs that only
        // existed because of it.
        Scenario c = s;
        c.faultPlan.clear();
        c.synCookies = false;
        c.synBacklog = 0;
        // The RTO can only go if nothing else depends on the retry
        // (tiny port spans drain through retransmitted SYNs).
        if (s.clientPortSpan == 0 || s.twRecycle)
            c.clientRtoMsec = 0.0;
        if (s.lossRate == 0.0)
            c.clientTimeoutSec = 0.0;
        push(c);
    } else if (s.clientRtoMsec > 0.0 &&
               (s.clientPortSpan == 0 || s.twRecycle)) {
        Scenario c = s;
        c.clientRtoMsec = 0.0;
        push(c);
    }
    if (s.lossRate > 0.0) {
        Scenario c = s;
        c.lossRate = 0.0;
        if (s.faultPlan.empty())
            c.clientTimeoutSec = 0.0;
        push(c);
    }
    if (s.longLivedPermille > 0) {
        Scenario c = s;
        c.longLivedPermille = 0;
        c.longLivedThinkMsec = 0.0;
        push(c);
    }
    if (s.clientPortSpan > 0 || s.clientIps > 0) {
        Scenario c = s;
        c.clientPortSpan = 0;
        c.clientIps = 0;
        c.twRecycle = false;
        push(c);
    } else if (s.twRecycle) {
        Scenario c = s;
        c.twRecycle = false;
        push(c);
    }
    if (s.backendKeepAlive || s.ephemeralPorts > 0) {
        Scenario c = s;
        c.backendKeepAlive = false;
        c.ephemeralPorts = 0;
        c.twReuse = false;
        push(c);
    } else if (s.twReuse) {
        Scenario c = s;
        c.twReuse = false;
        push(c);
    }
    // Kernel shrinks toward the baseline: presets drop to base2632;
    // custom sheds one feature at a time, top of the lattice first.
    if (s.kernel == "fastsocket" || s.kernel == "linux313") {
        Scenario c = s;
        c.kernel = "base2632";
        push(c);
    } else if (s.kernel == "custom") {
        if (s.localEstablished) {
            Scenario c = s;
            c.localEstablished = false;
            push(c);
        } else if (s.rfd) {
            Scenario c = s;
            c.rfd = false;
            push(c);
        } else if (s.localListen) {
            Scenario c = s;
            c.localListen = false;
            push(c);
        } else if (s.fastVfs) {
            Scenario c = s;
            c.fastVfs = false;
            push(c);
        } else {
            Scenario c = s;
            c.kernel = "base2632";
            push(c);
        }
    }
    return out;
}

} // anonymous namespace

Scenario
shrinkScenario(const Scenario &failing,
               const std::function<bool(const Scenario &)> &fails,
               int budget)
{
    Scenario cur = failing;
    int tried = 0;
    bool progress = true;
    while (progress && tried < budget) {
        progress = false;
        for (const Scenario &cand : shrinkCandidates(cur)) {
            if (tried >= budget)
                break;
            ++tried;
            if (fails(cand)) {
                cur = cand;
                progress = true;
                break;   // restart from the shrunk scenario
            }
        }
    }
    return cur;
}

} // namespace fsim
