#include "check/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "fault/fault_plan.hh"
#include "fleet/fleet.hh"
#include "harness/calibration.hh"
#include "sim/logging.hh"

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

std::string
serializeScenario(const Scenario &s)
{
    std::ostringstream os;
    // Doubles must round-trip bit-exactly: a reproducer that perturbs
    // lossRate in the 17th digit may no longer reproduce.
    os.precision(17);
    os << "# fsim fuzz scenario (replay: fuzz_scenarios --replay=FILE)\n";
    os << "seed = " << s.seed << "\n";
    os << "cores = " << s.cores << "\n";
    os << "app = " << (s.app == AppKind::kHaproxy ? "haproxy" : "nginx")
       << "\n";
    os << "kernel = " << s.kernel << "\n";
    if (s.kernel == "custom") {
        os << "fastVfs = " << (s.fastVfs ? 1 : 0) << "\n";
        os << "localListen = " << (s.localListen ? 1 : 0) << "\n";
        os << "rfd = " << (s.rfd ? 1 : 0) << "\n";
        os << "localEstablished = " << (s.localEstablished ? 1 : 0)
           << "\n";
    }
    os << "concurrencyPerCore = " << s.concurrencyPerCore << "\n";
    os << "requestsPerConn = " << s.requestsPerConn << "\n";
    os << "maxConns = " << s.maxConns << "\n";
    os << "lossRate = " << s.lossRate << "\n";
    os << "clientTimeoutSec = " << s.clientTimeoutSec << "\n";
    os << "listenBacklog = " << s.listenBacklog << "\n";
    os << "uma = " << (s.uma ? 1 : 0) << "\n";
    os << "acceptMutex = " << (s.acceptMutex ? 1 : 0) << "\n";
    os << "traceEnabled = " << (s.traceEnabled ? 1 : 0) << "\n";
    os << "maxSimSec = " << s.maxSimSec << "\n";
    if (s.longLivedPermille > 0) {
        os << "longLivedPermille = " << s.longLivedPermille << "\n";
        os << "longLivedRequests = " << s.longLivedRequests << "\n";
        os << "longLivedThinkMsec = " << s.longLivedThinkMsec << "\n";
    }
    if (s.clientPortSpan > 0)
        os << "clientPortSpan = " << s.clientPortSpan << "\n";
    if (s.clientIps > 0)
        os << "clientIps = " << s.clientIps << "\n";
    if (s.twReuse)
        os << "twReuse = 1\n";
    if (s.twRecycle)
        os << "twRecycle = 1\n";
    if (s.backendKeepAlive)
        os << "backendKeepAlive = 1\n";
    if (s.ephemeralPorts > 0)
        os << "ephemeralPorts = " << s.ephemeralPorts << "\n";
    if (s.fleetMachines > 0) {
        os << "fleetMachines = " << s.fleetMachines << "\n";
        os << "fleetBalancers = " << s.fleetBalancers << "\n";
        os << "fleetPolicy = " << s.fleetPolicy << "\n";
        if (s.sloMetrics)
            os << "sloMetrics = 1\n";
    }
    if (!s.faultPlan.empty())
        os << "faultPlan = " << s.faultPlan << "\n";
    if (s.synCookies)
        os << "synCookies = 1\n";
    if (s.synBacklog != 0)
        os << "synBacklog = " << s.synBacklog << "\n";
    if (s.clientRtoMsec > 0.0)
        os << "clientRtoMsec = " << s.clientRtoMsec << "\n";
    return os.str();
}

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // anonymous namespace

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
        std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
            err = "line " + std::to_string(lineno) + ": expected key = "
                  "value";
            return false;
        }
        std::string key = trim(t.substr(0, eq));
        std::string val = trim(t.substr(eq + 1));
        if (key.empty() || val.empty()) {
            err = "line " + std::to_string(lineno) + ": empty key or "
                  "value";
            return false;
        }
        try {
            if (key == "seed")
                s.seed = std::stoull(val);
            else if (key == "cores")
                s.cores = std::stoi(val);
            else if (key == "app")
                s.app = val == "haproxy" ? AppKind::kHaproxy
                                         : AppKind::kNginx;
            else if (key == "kernel")
                s.kernel = val;
            else if (key == "fastVfs")
                s.fastVfs = std::stoi(val) != 0;
            else if (key == "localListen")
                s.localListen = std::stoi(val) != 0;
            else if (key == "rfd")
                s.rfd = std::stoi(val) != 0;
            else if (key == "localEstablished")
                s.localEstablished = std::stoi(val) != 0;
            else if (key == "concurrencyPerCore")
                s.concurrencyPerCore = std::stoi(val);
            else if (key == "requestsPerConn")
                s.requestsPerConn = std::stoi(val);
            else if (key == "maxConns")
                s.maxConns = std::stoull(val);
            else if (key == "lossRate")
                s.lossRate = std::stod(val);
            else if (key == "clientTimeoutSec")
                s.clientTimeoutSec = std::stod(val);
            else if (key == "listenBacklog")
                s.listenBacklog = std::stoull(val);
            else if (key == "uma")
                s.uma = std::stoi(val) != 0;
            else if (key == "acceptMutex")
                s.acceptMutex = std::stoi(val) != 0;
            else if (key == "traceEnabled")
                s.traceEnabled = std::stoi(val) != 0;
            else if (key == "maxSimSec")
                s.maxSimSec = std::stod(val);
            else if (key == "longLivedPermille")
                s.longLivedPermille = std::stoi(val);
            else if (key == "longLivedRequests")
                s.longLivedRequests = std::stoi(val);
            else if (key == "longLivedThinkMsec")
                s.longLivedThinkMsec = std::stod(val);
            else if (key == "clientPortSpan")
                s.clientPortSpan = std::stoi(val);
            else if (key == "clientIps")
                s.clientIps = std::stoi(val);
            else if (key == "twReuse")
                s.twReuse = std::stoi(val) != 0;
            else if (key == "twRecycle")
                s.twRecycle = std::stoi(val) != 0;
            else if (key == "backendKeepAlive")
                s.backendKeepAlive = std::stoi(val) != 0;
            else if (key == "ephemeralPorts")
                s.ephemeralPorts = std::stoi(val);
            else if (key == "fleetMachines")
                s.fleetMachines = std::stoi(val);
            else if (key == "fleetBalancers")
                s.fleetBalancers = std::stoi(val);
            else if (key == "fleetPolicy")
                s.fleetPolicy = val;
            else if (key == "sloMetrics")
                s.sloMetrics = std::stoi(val) != 0;
            else if (key == "faultPlan")
                s.faultPlan = val;
            else if (key == "synCookies")
                s.synCookies = std::stoi(val) != 0;
            else if (key == "synBacklog")
                s.synBacklog = std::stoull(val);
            else if (key == "clientRtoMsec")
                s.clientRtoMsec = std::stod(val);
            // Unknown keys are ignored (forward compatibility).
        } catch (const std::exception &) {
            err = "line " + std::to_string(lineno) + ": bad value for " +
                  key;
            return false;
        }
    }

    // Validity: the same constraints randomScenario() builds in.
    if (s.cores < 1 || s.cores > 64) {
        err = "cores out of range";
        return false;
    }
    if (s.kernel != "base2632" && s.kernel != "linux313" &&
        s.kernel != "fastsocket" && s.kernel != "custom") {
        err = "unknown kernel '" + s.kernel + "'";
        return false;
    }
    if (s.localEstablished && !(s.localListen && s.rfd)) {
        err = "localEstablished requires localListen and rfd";
        return false;
    }
    if (s.lossRate > 0.0 && s.clientTimeoutSec <= 0.0) {
        err = "lossRate > 0 requires clientTimeoutSec > 0";
        return false;
    }
    if (s.maxConns == 0) {
        err = "maxConns must be > 0 (fuzz runs must quiesce)";
        return false;
    }
    if (s.longLivedPermille < 0 || s.longLivedPermille > 1000) {
        err = "longLivedPermille out of [0,1000]";
        return false;
    }
    if (s.longLivedPermille > 0 && s.longLivedRequests < 1) {
        err = "longLivedRequests must be >= 1";
        return false;
    }
    if (s.clientPortSpan > 0 && s.clientRtoMsec <= 0.0 && !s.twRecycle) {
        err = "clientPortSpan > 0 requires clientRtoMsec > 0 or "
              "twRecycle (TIME_WAIT SYN drops need a retry to drain)";
        return false;
    }
    if (s.ephemeralPorts < 0 || s.ephemeralPorts > 28232) {
        err = "ephemeralPorts out of range";
        return false;
    }
    if (s.clientIps < 0 || s.clientPortSpan < 0) {
        err = "clientIps/clientPortSpan must be >= 0";
        return false;
    }
    if (s.fleetMachines < 0 || s.fleetMachines > 8) {
        err = "fleetMachines out of [0,8]";
        return false;
    }
    if (s.fleetBalancers < 1 || s.fleetBalancers > 4) {
        err = "fleetBalancers out of [1,4]";
        return false;
    }
    if (s.sloMetrics && s.fleetMachines <= 0) {
        err = "sloMetrics requires fleetMachines > 0";
        return false;
    }
    if (s.fleetPolicy != "chash" && s.fleetPolicy != "rr") {
        err = "unknown fleetPolicy '" + s.fleetPolicy + "'";
        return false;
    }
    if (!s.faultPlan.empty()) {
        FaultPlan plan;
        std::string perr;
        if (!parseFaultPlan(s.faultPlan, plan, perr)) {
            err = "faultPlan: " + perr;
            return false;
        }
        if (s.clientTimeoutSec <= 0.0) {
            err = "a fault plan requires clientTimeoutSec > 0";
            return false;
        }
        // Fleet orchestration events only mean something on the fleet
        // topology, and their targets must exist (the orchestrator
        // asserts the range).
        // Group tokens resolve against the fleet topology; resolveGroup
        // aborts on a token that names nothing, so reject those here.
        auto groupInRange = [&s](const std::string &tok) {
            if (tok == "clients" || tok == "lbs" || tok == "ms")
                return true;
            if (tok.rfind("lb", 0) == 0 && tok.size() > 2)
                return std::stoi(tok.substr(2)) < s.fleetBalancers;
            if (tok.size() > 1 && tok[0] == 'm')
                return std::stoi(tok.substr(1)) < s.fleetMachines;
            return false;
        };
        for (const FaultEvent &ev : plan.events) {
            if (ev.kind != FaultKind::kMachineCrash &&
                ev.kind != FaultKind::kRollingRestart &&
                ev.kind != FaultKind::kLbCrash &&
                ev.kind != FaultKind::kMachineDegrade &&
                ev.kind != FaultKind::kNetPartition)
                continue;
            if (s.fleetMachines <= 0) {
                err = "fleet fault events require fleetMachines > 0";
                return false;
            }
            if (ev.kind == FaultKind::kMachineCrash &&
                ev.target >= s.fleetMachines) {
                err = "machine_crash target out of range";
                return false;
            }
            if (ev.kind == FaultKind::kMachineDegrade &&
                (ev.target < 0 || ev.target >= s.fleetMachines)) {
                err = "machine_degrade target out of range";
                return false;
            }
            if (ev.kind == FaultKind::kLbCrash &&
                ev.target >= s.fleetBalancers) {
                err = "lb_crash target out of range";
                return false;
            }
            if (ev.kind == FaultKind::kNetPartition &&
                (!groupInRange(ev.partA) || !groupInRange(ev.partB))) {
                err = "net_partition group names nothing in this fleet";
                return false;
            }
        }
    }
    out = s;
    return true;
}

namespace
{

struct OneRun
{
    bool drained = false;
    std::uint64_t fingerprint = 0;
    InvariantReport invariants;
};

/** Drive @p bed until the bounded load drains or the sim-time cap. */
template <typename Bed>
bool
driveUntilDrained(Bed &bed, const Scenario &s)
{
    EventQueue &eq = bed.eventQueue();
    HttpLoad &load = bed.load();
    const Tick cap = ticksFromSeconds(s.maxSimSec);
    const Tick chunk = ticksFromSeconds(0.01);
    bed.startLoad();
    while (eq.now() < cap &&
           (load.inFlight() > 0 || load.started() < s.maxConns))
        bed.runUntilChecked(std::min(cap, eq.now() + chunk));
    return load.inFlight() == 0 && load.started() >= s.maxConns;
}

OneRun
runOnce(const Scenario &s)
{
    ExperimentConfig cfg = s.toConfig();
    OneRun r;

    if (s.fleetMachines > 0) {
        FleetConfig fc;
        fc.base = cfg;
        fc.serverMachines = s.fleetMachines;
        fc.balancers = s.fleetBalancers;
        bool ok = L4Balancer::policyFromName(s.fleetPolicy, fc.policy);
        fsim_assert(ok);   // validity was enforced at parse time
        fc.sloEnabled = s.sloMetrics;
        // Long-lived think pauses must stay well inside the balancer's
        // idle-flow GC horizon or mid-conversation flows get retired.
        fc.flowIdleTimeoutMsec = std::max(
            fc.flowIdleTimeoutMsec, 4.0 * s.longLivedThinkMsec + 100.0);
        FleetTestbed bed(fc);
        {
            // Fleet drive loop: same chunked cadence as
            // driveUntilDrained, but when the observability layer is
            // armed every chunk boundary also feeds the SLO tracker
            // and samples the metrics registry — the fuzzer's own
            // sub-window clock, since run() is bypassed here.
            EventQueue &eq = bed.eventQueue();
            HttpLoad &load = bed.load();
            const Tick cap = ticksFromSeconds(s.maxSimSec);
            const Tick chunk = ticksFromSeconds(0.01);
            bed.startLoad();
            while (eq.now() < cap &&
                   (load.inFlight() > 0 || load.started() < s.maxConns)) {
                const Tick wstart = eq.now();
                bed.runUntilChecked(std::min(cap, eq.now() + chunk));
                if (s.sloMetrics)
                    bed.sampleObservability(wstart, eq.now());
            }
            r.drained =
                load.inFlight() == 0 && load.started() >= s.maxConns;
        }
        // No quiesce leak pass on the fleet: probe and flow-GC timers
        // self-reschedule forever (runAll would never return), and a
        // crashed generation legitimately strands its server TCBs.
        bed.checks().runAll(bed.eventQueue().now());
        if (cfg.machine.traceEnabled) {
            // Stitching invariant: collect() reconciles every machine
            // span against the client-minted trace ids. After a full
            // drain no successful request may be missing its server
            // span, no id may be born twice, and no span may disagree
            // with its balancer flow's byte accounting.
            ExperimentResult fr = bed.collect();
            const FleetTraceLog &log = bed.traceLog();
            InvariantRegistry stitch;
            stitch.add("trace-stitch-lossless",
                       [&](Tick, std::string &why) {
                           std::uint64_t unstitched = 0;
                           for (const FleetTrace &tr : log.records())
                               if (tr.clientDone && tr.ok && !tr.stitched)
                                   ++unstitched;
                           if (fr.fleet.traceOrphans == 0 &&
                               fr.fleet.traceDuplicates == 0 &&
                               unstitched == 0)
                               return true;
                           why = "orphans=" +
                                 std::to_string(fr.fleet.traceOrphans) +
                                 " duplicates=" +
                                 std::to_string(fr.fleet.traceDuplicates) +
                                 " unstitched-ok=" +
                                 std::to_string(unstitched);
                           return false;
                       });
            stitch.add("trace-span-reconcile",
                       [&](Tick, std::string &why) {
                           if (fr.fleet.spanReconcileViolations == 0)
                               return true;
                           why = "span reconcile violations=" +
                                 std::to_string(
                                     fr.fleet.spanReconcileViolations);
                           return false;
                       });
            stitch.runAll(bed.eventQueue().now());
            r.invariants = stitch.report();
        }
        r.fingerprint = bed.currentFingerprint();
        r.invariants.merge(bed.checks().report());
        return r;
    }

    Testbed bed(cfg);

    // Leak checks are only meaningful when every client connection runs
    // to a clean close: under injected loss, abandoned handshakes
    // legitimately strand server-side TCBs until their (long) keepalive
    // horizon, which is model behavior, not a leak.
    InvariantRegistry quiesce;
    if (s.lossRate == 0.0 && s.faultPlan.empty())
        registerQuiesceInvariants(quiesce, bed.machine(), bed.load());

    EventQueue &eq = bed.eventQueue();
    r.drained = driveUntilDrained(bed, s);
    if (r.drained) {
        eq.runAll();
        quiesce.runAll(eq.now());
    }
    bed.checks().runAll(eq.now());
    r.fingerprint = bed.currentFingerprint();
    r.invariants = bed.checks().report();
    r.invariants.merge(quiesce.report());
    return r;
}

} // anonymous namespace

ScenarioResult
runScenario(const Scenario &s)
{
    OneRun a = runOnce(s);
    OneRun b = runOnce(s);

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

bool
isFleetKind(FaultKind k)
{
    return k == FaultKind::kMachineCrash ||
           k == FaultKind::kRollingRestart ||
           k == FaultKind::kLbCrash ||
           k == FaultKind::kMachineDegrade ||
           k == FaultKind::kNetPartition;
}

/** Plan text minus the fleet-orchestration events ("" if none left). */
std::string
withoutFleetEvents(const std::string &planText)
{
    if (planText.empty())
        return planText;
    FaultPlan plan;
    std::string err;
    if (!parseFaultPlan(planText, plan, err))
        return planText;
    FaultPlan kept;
    kept.seed = plan.seed;
    for (const FaultEvent &ev : plan.events)
        if (!isFleetKind(ev.kind))
            kept.events.push_back(ev);
    return serializeFaultPlan(kept);
}

/** Plan text with per-machine fleet targets clamped below @p machines:
 *  crash/degrade target indices and partition "m<s>" group tokens. */
std::string
clampFleetTargets(const std::string &planText, int machines)
{
    if (planText.empty())
        return planText;
    FaultPlan plan;
    std::string err;
    if (!parseFaultPlan(planText, plan, err))
        return planText;
    auto clampMachineTok = [machines](std::string &tok) {
        if (tok != "ms" && tok.size() > 1 && tok[0] == 'm')
            tok = "m" + std::to_string(std::min(
                            std::stoi(tok.substr(1)), machines - 1));
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

bool
planHasKind(const std::string &planText, FaultKind kind)
{
    if (planText.empty())
        return false;
    FaultPlan plan;
    std::string err;
    if (!parseFaultPlan(planText, plan, err))
        return false;
    for (const FaultEvent &ev : plan.events)
        if (ev.kind == kind)
            return true;
    return false;
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
        // machines, fewer balancers, and the default steering policy.
        Scenario c = s;
        c.fleetMachines = 0;
        c.fleetBalancers = 1;
        c.fleetPolicy = "chash";
        c.sloMetrics = false;   // fleet-only knob
        c.faultPlan = withoutFleetEvents(s.faultPlan);
        push(c);
        if (s.sloMetrics) {
            Scenario d = s;
            d.sloMetrics = false;
            push(d);
        }
        if (s.fleetMachines > 2) {
            Scenario d = s;
            d.fleetMachines = 2;
            d.faultPlan = clampFleetTargets(s.faultPlan, 2);
            push(d);
        }
        // Dropping to one balancer invalidates events that name a
        // specific balancer (lb_crash target, partition lb<k> groups).
        if (s.fleetBalancers > 1 &&
            !planHasKind(s.faultPlan, FaultKind::kLbCrash) &&
            !planHasKind(s.faultPlan, FaultKind::kNetPartition)) {
            Scenario d = s;
            d.fleetBalancers = 1;
            push(d);
        }
        if (s.fleetPolicy != "chash") {
            Scenario d = s;
            d.fleetPolicy = "chash";
            push(d);
        }
    }

    if (s.maxConns > 50) {
        Scenario c = s;
        c.maxConns = std::max<std::uint64_t>(50, s.maxConns / 2);
        push(c);
    }
    if (s.cores > 1) {
        Scenario c = s;
        c.cores = std::max(1, s.cores / 2);
        push(c);
        if (s.cores - 1 != c.cores) {
            Scenario d = s;
            d.cores = s.cores - 1;
            push(d);
        }
    }
    if (s.concurrencyPerCore > 4) {
        Scenario c = s;
        c.concurrencyPerCore = std::max(4, s.concurrencyPerCore / 2);
        push(c);
    }
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
    if (s.requestsPerConn > 1) {
        Scenario c = s;
        c.requestsPerConn = 1;
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
    if (s.listenBacklog != 0) {
        Scenario c = s;
        c.listenBacklog = 0;
        push(c);
    }
    if (s.acceptMutex) {
        Scenario c = s;
        c.acceptMutex = false;
        push(c);
    }
    if (s.uma) {
        Scenario c = s;
        c.uma = false;
        push(c);
    }
    if (s.traceEnabled) {
        Scenario c = s;
        c.traceEnabled = false;
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
