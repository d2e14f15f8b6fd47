#include "fleet/fleet.hh"

#include <algorithm>
#include <cctype>
#include <string>

#include "check/fingerprint.hh"
#include "sim/logging.hh"

namespace fsim
{

namespace
{

/** Balancer health-probe round period. */
constexpr Tick kProbeInterval = ticksFromMsec(2.0);
/** Drain-progress poll period. */
constexpr Tick kDrainPoll = ticksFromMsec(0.5);
/** VIP failover detection lag. */
constexpr Tick kTakeoverDelay = ticksFromMsec(5.0);
/** Fabric links: clients <-> VIPs, and the NATs <-> each machine. */
constexpr Tick kFrontLinkLatency = ticksFromUsec(100.0);
constexpr double kFrontLinkGbps = 40.0;
constexpr Tick kRackLinkLatency = ticksFromUsec(20.0);
constexpr double kRackLinkGbps = 10.0;

} // anonymous namespace

FleetTestbed::FleetTestbed(const FleetConfig &cfg)
    : cfg_(cfg)
{
    fsim_assert(cfg_.serverMachines >= 1 && cfg_.serverMachines <= 64);
    fsim_assert(cfg_.balancers >= 1 && cfg_.balancers <= 8);

    // Balancer probes abandon their handshakes silently (a probe
    // RST-ACK would *establish* the embryonic socket), so fleet server
    // kernels always run the SYN_RCVD reaper.
    if (cfg_.base.machine.kernel.synRcvdJiffies == 0)
        cfg_.base.machine.kernel.synRcvdJiffies = 20;

    eq_ = std::make_unique<EventQueue>();
    fabric_ = std::make_unique<Wire>(*eq_, kWireDelay);
    if (cfg_.base.lossRate > 0.0)
        fabric_->setLossRate(cfg_.base.lossRate,
                             cfg_.base.machine.seed ^ 0x10ad);

    std::vector<IpAddr> vips;
    for (int k = 0; k < cfg_.balancers; ++k)
        vips.push_back(vipAddr(k));
    const HttpLoad::Config lc = clientConfig(
        cfg_.base, vips, 80,
        cfg_.base.concurrencyPerCore * cfg_.base.machine.cores *
            cfg_.serverMachines);
    clientLast_ = HttpLoad::kClientBase +
                  static_cast<IpAddr>(lc.clientIps) - 1;

    Wire::LinkSpec front;
    front.aFirst = HttpLoad::kClientBase;
    front.aLast = clientLast_;
    front.bFirst = vipAddr(0);
    front.bLast = vipAddr(cfg_.balancers - 1);
    front.latency = kFrontLinkLatency;
    front.gbps = kFrontLinkGbps;
    fabric_->addLink(front);
    for (int s = 0; s < cfg_.serverMachines; ++s) {
        Wire::LinkSpec rack;
        rack.aFirst = natAddr(0);
        rack.aLast = natAddr(cfg_.balancers - 1);
        rack.bFirst = machineBase(s);
        rack.bLast = machineBase(s) + 0xff;
        rack.latency = kRackLinkLatency;
        rack.gbps = kRackLinkGbps;
        fabric_->addLink(rack);
    }

    backends_ = buildBackends(*eq_, *fabric_, cfg_.base, backendAddrs_);

    slots_.resize(cfg_.serverMachines);
    for (int s = 0; s < cfg_.serverMachines; ++s)
        buildGeneration(s);

    // Balancers share one ring seed so every balancer steers a given
    // flow to the same machine (the consistent-hash fleet property).
    for (int k = 0; k < cfg_.balancers; ++k) {
        L4Balancer::Config bc;
        bc.vip = vipAddr(k);
        bc.natIp = natAddr(k);
        bc.policy = cfg_.policy;
        bc.maxFlows = cfg_.maxFlowsPerBalancer;
        bc.probeInterval = kProbeInterval;
        bc.probeTimeout = ticksFromMsec(cfg_.probeTimeoutMsec);
        bc.healthMode = cfg_.healthMode;
        bc.score = cfg_.healthScore;
        bc.flowIdleTimeout = ticksFromMsec(cfg_.flowIdleTimeoutMsec);
        bc.seed = cfg_.base.machine.seed ^ 0xb417;
        auto b = std::make_unique<L4Balancer>(*eq_, *fabric_, bc);
        for (int s = 0; s < cfg_.serverMachines; ++s) {
            L4Balancer::TargetSpec ts;
            ts.addrs = slots_[s].gen.machine->addrs();
            ts.port = slots_[s].gen.machine->servicePort();
            b->addTarget(ts);
        }
        // Cross-tier overload reuse: steering consults each live
        // machine's kernel pressure signal.
        b->setPressureProbe([this](int m) {
            if (!slots_[m].up)
                return 0;
            return static_cast<int>(
                slots_[m].gen.machine->pressure().level());
        });
        b->setIncidentLog(&incidents_);
        b->setTraceLog(&traceLog_, k);
        b->attachHandlers();
        b->start();
        balancers_.push_back(std::move(b));
    }
    lbUp_.assign(cfg_.balancers, true);

    load_ = std::make_unique<HttpLoad>(*eq_, *fabric_, lc);
    load_->setTraceLog(&traceLog_);
    setupObservability();

    if (!cfg_.base.faults.empty()) {
        // Wire/backend/flood events arm normally (floods hit the VIPs;
        // fleet kinds are counted as ignored by the injector and
        // consumed below). atr_shrink binds to machine 0's boot NIC.
        faults_ = std::make_unique<FaultInjector>(
            *eq_, *fabric_, slots_[0].gen.machine->nic(),
            backends_.get(), cfg_.base.faults);
        faults_->arm(vips, 80);
        armFleetFaults();
    }

    if (cfg_.base.checkLevel != CheckLevel::kOff) {
        for (ServerSlot &sl : slots_)
            registerServerInvariants(checks_, sl.gen, *load_, *fabric_);
        for (std::size_t k = 0; k < balancers_.size(); ++k) {
            L4Balancer *b = balancers_[k].get();
            checks_.add("fleet-flow-conservation",
                        [b](Tick, std::string &why) {
                if (b->flowsCreated() ==
                    b->flowsRetired() + b->flowsActive())
                    return true;
                why = "created " + std::to_string(b->flowsCreated()) +
                      " != retired " + std::to_string(b->flowsRetired()) +
                      " + active " + std::to_string(b->flowsActive());
                return false;
            });
            checks_.add("fleet-target-accounting",
                        [b](Tick, std::string &why) {
                std::uint64_t sum = 0;
                for (int m = 0; m < b->targetCount(); ++m)
                    sum += b->activeFlows(m);
                if (sum == b->flowsActive())
                    return true;
                why = "per-target active " + std::to_string(sum) +
                      " != flow table " +
                      std::to_string(b->flowsActive());
                return false;
            });
            checks_.add("fleet-drain-accounting",
                        [b](Tick, std::string &why) {
                if (b->drainsStarted() >= b->drainsCompleted())
                    return true;
                why = "drains completed " +
                      std::to_string(b->drainsCompleted()) +
                      " exceed started " +
                      std::to_string(b->drainsStarted());
                return false;
            });
        }
    }

    markWindows();
}

FleetTestbed::~FleetTestbed() = default;

void
FleetTestbed::buildGeneration(int s)
{
    ServerSlot &sl = slots_[s];
    MachineConfig mc = cfg_.base.machine;
    mc.baseAddr = machineBase(s);
    mc.seed = cfg_.base.machine.seed ^
              (0x5107ULL + static_cast<std::uint64_t>(s) * 0x9e3779b9ULL) ^
              (static_cast<std::uint64_t>(sl.generation) * 0x85ebca6bULL);

    auto port = std::make_unique<NetPort>(*fabric_);
    Server srv = buildServer(*eq_, *port, cfg_.base, mc, backendAddrs_);
    sl.gen = Generation{{std::move(port)}, std::move(srv)};
    // Every span joins its end-to-end trace as its connection closes;
    // fleet machines retain none.
    sl.gen.machine->tracer().connSpans().stitchInto(&traceLog_);
    // A gray fault is the slot's environment, not one generation's
    // state: a restart mid-degrade comes back just as sick.
    if (sl.degraded)
        applyDegrade(s);
    // A fresh generation's window counts from its boot.
    sl.gen.machine->markWindow();
    sl.mark = ServerWindow{};
}

std::vector<std::pair<IpAddr, IpAddr>>
FleetTestbed::resolveGroup(const std::string &tok) const
{
    std::vector<std::pair<IpAddr, IpAddr>> out;
    if (tok == "clients") {
        out.emplace_back(HttpLoad::kClientBase, clientLast_);
    } else if (tok == "lbs") {
        out.emplace_back(vipAddr(0), vipAddr(cfg_.balancers - 1));
        out.emplace_back(natAddr(0), natAddr(cfg_.balancers - 1));
    } else if (tok == "ms") {
        // machineBase blocks are contiguous 0x100 strides.
        out.emplace_back(machineBase(0),
                         machineBase(cfg_.serverMachines - 1) + 0xff);
    } else if (tok.rfind("lb", 0) == 0 && tok.size() > 2) {
        const int k = std::stoi(tok.substr(2));
        if (k >= 0 && k < cfg_.balancers) {
            out.emplace_back(vipAddr(k), vipAddr(k));
            out.emplace_back(natAddr(k), natAddr(k));
        }
    } else if (tok.size() > 1 && tok[0] == 'm') {
        const int s = std::stoi(tok.substr(1));
        if (s >= 0 && s < cfg_.serverMachines)
            out.emplace_back(machineBase(s), machineBase(s) + 0xff);
    }
    if (out.empty())
        fsim_fatal("net_partition: group '%s' names nothing in a fleet "
                   "of %d machines / %d balancers",
                   tok.c_str(), cfg_.serverMachines, cfg_.balancers);
    return out;
}

void
FleetTestbed::armFleetFaults()
{
    for (const FaultEvent &e : cfg_.base.faults.events) {
        const Tick start = ticksFromSeconds(e.startSec);
        const Tick end = ticksFromSeconds(e.endSec);
        switch (e.kind) {
          case FaultKind::kMachineCrash: {
            fsim_assert(e.target >= 0 &&
                        e.target < cfg_.serverMachines);
            const int t = e.target;
            const FaultEvent::CrashMode mode = e.mode;
            const int id = incidents_.open(IncidentKind::kMachineCrash,
                                           t, start);
            eq_->schedule(start, [this, t, mode] {
                crashMachine(t, mode, /*admin=*/false);
            });
            eq_->schedule(end, [this, t, id] {
                restartMachine(t);
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          case FaultKind::kRollingRestart: {
            const Tick drain = ticksFromMsec(e.drainMsec);
            const Tick down = ticksFromMsec(e.downMsec);
            eq_->schedule(start, [this, drain, down] {
                beginRollingRestart(drain, down);
            });
            break;
          }
          case FaultKind::kLbCrash: {
            fsim_assert(e.target >= 0 && e.target < cfg_.balancers);
            const int t = e.target;
            // Balancer incidents never collide with machine-slot stamp
            // routing (targets_ indices are < 64).
            const int id = incidents_.open(IncidentKind::kLbCrash,
                                           1000 + t, start);
            eq_->schedule(start, [this, t] { crashBalancer(t); });
            eq_->schedule(end, [this, t, id] {
                restoreBalancer(t);
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          case FaultKind::kMachineDegrade: {
            fsim_assert(e.target >= 0 &&
                        e.target < cfg_.serverMachines);
            const int t = e.target;
            const std::uint32_t permille = static_cast<std::uint32_t>(
                e.factor * 1000.0 + 0.5);
            const double loss = e.rate;
            const Tick delay = ticksFromUsec(e.jitterUsec);
            const Tick half = e.flapMsec > 0
                                  ? ticksFromMsec(e.flapMsec) / 2
                                  : 0;
            const int id = incidents_.open(
                half > 0 ? IncidentKind::kMachineFlap
                         : IncidentKind::kMachineDegrade,
                t, start);
            if (half > 0) {
                // Pre-scheduled oscillation: degraded on even
                // half-periods, nominally healthy on odd ones.
                int phase = 0;
                for (Tick at = start; at < end; at += half, ++phase) {
                    const bool on = phase % 2 == 0;
                    eq_->schedule(at,
                                  [this, t, on, permille, loss, delay] {
                        ++flapTransitions_;
                        if (on)
                            degradeMachine(t, permille, loss, delay);
                        else
                            clearDegrade(t);
                    });
                }
            } else {
                eq_->schedule(start, [this, t, permille, loss, delay] {
                    degradeMachine(t, permille, loss, delay);
                });
            }
            eq_->schedule(end, [this, t, id] {
                clearDegrade(t);
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          case FaultKind::kNetPartition: {
            const auto as = resolveGroup(e.partA);
            const auto bs = resolveGroup(e.partB);
            for (const auto &ra : as) {
                for (const auto &rb : bs) {
                    Wire::PartitionSpec p;
                    p.aFirst = ra.first;
                    p.aLast = ra.second;
                    p.bFirst = rb.first;
                    p.bLast = rb.second;
                    p.start = start;
                    p.end = end;
                    fabric_->addPartition(p);
                    ++partitionsArmed_;
                }
            }
            // A single-machine side pins the incident to that slot so
            // eject/recover stamps land; group-to-group partitions stay
            // fleet-wide (-1).
            auto singleMachine = [this](const std::string &tok) {
                if (tok.size() < 2 || tok[0] != 'm' ||
                    !std::isdigit(static_cast<unsigned char>(tok[1])))
                    return -1;
                const int s = std::stoi(tok.substr(1));
                return s < cfg_.serverMachines ? s : -1;
            };
            int target = singleMachine(e.partA);
            if (target < 0)
                target = singleMachine(e.partB);
            const int id = incidents_.open(IncidentKind::kNetPartition,
                                           target, start);
            eq_->schedule(end, [this, id] {
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          default:
            break;    // armed on the FaultInjector
        }
    }
}

void
FleetTestbed::applyDegrade(int s)
{
    ServerSlot &sl = slots_.at(s);
    sl.gen.machine->cpu().setSlowdownPermille(
        sl.degraded ? sl.slowPermille : 1000);
    const std::uint64_t seed =
        cfg_.base.machine.seed ^
        (0xde64adeULL + static_cast<std::uint64_t>(s) * 0x9e3779b9ULL);
    sl.gen.port->setDegrade(sl.degraded ? sl.nicLoss : 0.0,
                            sl.degraded ? sl.nicDelay : 0, seed);
}

void
FleetTestbed::degradeMachine(int s, std::uint32_t permille,
                             double nicLoss, Tick nicDelay)
{
    ServerSlot &sl = slots_.at(s);
    sl.degraded = true;
    sl.slowPermille = permille < 1000 ? 1000 : permille;
    sl.nicLoss = nicLoss;
    sl.nicDelay = nicDelay;
    ++degradesApplied_;
    applyDegrade(s);
}

void
FleetTestbed::clearDegrade(int s)
{
    ServerSlot &sl = slots_.at(s);
    if (!sl.degraded)
        return;
    sl.degraded = false;
    applyDegrade(s);
}

void
FleetTestbed::crashMachine(int s, FaultEvent::CrashMode mode, bool admin)
{
    ServerSlot &sl = slots_.at(s);
    if (!sl.up)
        return;
    sl.up = false;
    if (!admin)
        ++crashes_;

    // TX side: the zombie kernel's future transmissions die at its port.
    sl.gen.port->setTxOpen(false);
    // The dying kernel's TCBs will never destruct, so their span
    // traces would stay live forever; finalize them abnormally now so
    // they are stitched with the work they performed.
    sl.gen.machine->tracer().connSpans().closeAllLive(eq_->now());
    // RX side: the corpse either answers RSTs (power on, kernel gone)
    // or eats packets (cable pulled). Wire re-resolves handlers at
    // delivery, so even in-flight packets see the corpse.
    const bool blackhole = mode == FaultEvent::CrashMode::kBlackhole;
    for (IpAddr a : sl.gen.port->attachedAddrs()) {
        if (blackhole) {
            fabric_->attach(a, [this](const Packet &) {
                ++blackholed_;
            });
        } else {
            fabric_->attach(a, [this](const Packet &pkt) {
                if (pkt.has(kRst))
                    return;     // never RST a RST
                Packet rst;
                rst.tuple = pkt.tuple.reversed();
                rst.flags = kRst;
                rst.connId = pkt.connId;
                ++corpseRsts_;
                fabric_->transmit(rst, eq_->now());
            });
        }
    }

    if (admin) {
        // Planned stop: balancers know. (Abrupt crashes are discovered
        // through probe failures instead — that's the point.)
        for (auto &b : balancers_)
            b->noteStopped(s);
    }
}

void
FleetTestbed::restartMachine(int s)
{
    ServerSlot &sl = slots_.at(s);
    if (sl.up)
        return;

    // Bank the dying generation's window counters (its phases and
    // locks leave the window with it), then retire it as a zombie
    // (run-total counters must stay reachable).
    ServerWindow banked = ServerWindow::read(sl.gen).since(sl.mark);
    banked.phases = PhaseSnapshot{};
    banked.locks.clear();
    retiredWindow_ += banked;
    retired_.push_back(std::move(sl.gen));

    ++sl.generation;
    buildGeneration(s);
    sl.up = true;
    ++restarts_;
    for (auto &b : balancers_)
        b->noteRestarted(s);

    if (cfg_.base.checkLevel != CheckLevel::kOff)
        registerServerInvariants(checks_, sl.gen, *load_, *fabric_);
}

std::uint64_t
FleetTestbed::totalActiveOn(int s) const
{
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < balancers_.size(); ++k)
        if (lbUp_[k])
            sum += balancers_[k]->activeFlows(s);
    return sum;
}

void
FleetTestbed::beginRollingRestart(Tick drainDeadline, Tick downtime)
{
    fsim_assert(drainDeadline > 0 && downtime > 0);
    if (rollingActive_)
        return;
    rollingActive_ = true;
    rollingIndex_ = 0;
    rollingDrain_ = drainDeadline;
    rollingDown_ = downtime;
    advanceRolling();
}

void
FleetTestbed::advanceRolling()
{
    // Skip slots that are already down (an independent crash window).
    while (rollingIndex_ < static_cast<int>(slots_.size()) &&
           !slots_[rollingIndex_].up)
        ++rollingIndex_;
    if (rollingIndex_ >= static_cast<int>(slots_.size())) {
        rollingActive_ = false;
        return;
    }
    const int s = rollingIndex_;
    for (std::size_t k = 0; k < balancers_.size(); ++k)
        if (lbUp_[k])
            balancers_[k]->startDrain(s);
    pollDrain(s, eq_->now() + rollingDrain_);
}

void
FleetTestbed::pollDrain(int s, Tick deadline)
{
    eq_->scheduleIn(kDrainPoll, [this, s, deadline] {
        if (!slots_[s].up) {
            // Crashed out from under the drain; close the books and
            // move on (the crash window owns the restart).
            for (std::size_t k = 0; k < balancers_.size(); ++k)
                if (lbUp_[k])
                    balancers_[k]->finishDrain(s);
            ++rollingIndex_;
            advanceRolling();
            return;
        }
        if (totalActiveOn(s) > 0 && eq_->now() < deadline) {
            pollDrain(s, deadline);
            return;
        }
        for (std::size_t k = 0; k < balancers_.size(); ++k)
            if (lbUp_[k])
                balancers_[k]->finishDrain(s);
        crashMachine(s, FaultEvent::CrashMode::kRst, /*admin=*/true);
        eq_->scheduleIn(rollingDown_, [this, s] {
            restartMachine(s);
            pollReadmit(s);
        });
    });
}

void
FleetTestbed::pollReadmit(int s)
{
    eq_->scheduleIn(kDrainPoll, [this, s] {
        bool ok = true;
        for (std::size_t k = 0; k < balancers_.size(); ++k)
            if (lbUp_[k])
                ok = ok && balancers_[k]->healthy(s);
        if (ok) {
            ++rollingIndex_;
            advanceRolling();
        } else {
            pollReadmit(s);
        }
    });
}

void
FleetTestbed::crashBalancer(int k)
{
    if (!lbUp_.at(k))
        return;
    lbUp_[k] = false;
    ++lbCrashes_;
    balancers_[k]->setDown(true);
    fabric_->attach(vipAddr(k),
                    [this](const Packet &) { ++blackholed_; });
    fabric_->attach(natAddr(k),
                    [this](const Packet &) { ++blackholed_; });
    // A surviving peer adopts the VIP after the detection lag.
    eq_->scheduleIn(kTakeoverDelay, [this, k] {
        if (lbUp_[k])
            return;     // restored before the failover fired
        for (std::size_t kk = 0; kk < balancers_.size(); ++kk) {
            if (lbUp_[kk]) {
                balancers_[kk]->adoptVip(vipAddr(k));
                ++vipTakeovers_;
                return;
            }
        }
    });
}

void
FleetTestbed::restoreBalancer(int k)
{
    if (lbUp_.at(k))
        return;
    lbUp_[k] = true;
    balancers_[k]->setDown(false);
    // Re-attaching overwrites both the blackhole and any peer adoption.
    balancers_[k]->attachHandlers();
}

void
FleetTestbed::startLoad()
{
    if (loadStarted_)
        return;
    loadStarted_ = true;
    if (cfg_.openLoopRate > 0.0)
        load_->startOpenLoop(cfg_.openLoopRate);
    else
        load_->start();
}

void
FleetTestbed::runUntilChecked(Tick limit)
{
    runChecked(*eq_, checks_, cfg_.base, limit);
}

void
FleetTestbed::markWindows()
{
    for (ServerSlot &sl : slots_)
        sl.mark = ServerWindow::start(sl.gen);
    runMark_ = RunMark::take(*eq_, *load_);
    retiredWindow_ = ServerWindow{};

    // Re-seed the observability cursors so warmup traffic never leaks
    // into the first sampled window or the SLO burn state.
    obsCompletedPrev_ = load_->completed();
    obsFailedPrev_ = load_->failed();
    obsShedPrev_ = currentShedTotal();
    latCursor_ = load_->latencySamples().size();
    for (std::size_t s = 0; s < slots_.size(); ++s)
        obsServedPrev_[s] = slots_[s].gen.app->served();
}

std::uint64_t
FleetTestbed::currentShedTotal() const
{
    std::uint64_t shed = 0;
    for (const auto &b : balancers_)
        shed += b->shedNoBackend() + b->shedCapacity();
    forEachGeneration([&shed](const Generation &g) {
        if (g.admission)
            shed += g.admission->shed();
    });
    return shed;
}

void
FleetTestbed::setupObservability()
{
    // Recording infrastructure follows the span-trace master switch:
    // --notrace must leave both logs allocation-free.
    const bool rec = cfg_.base.machine.traceEnabled;
    traceLog_.setEnabled(rec);
    metrics_.setEnabled(rec);
    const int wins = std::max(1, cfg_.base.statWindows);
    metrics_.setSamplePeriod(
        ticksFromSeconds(cfg_.base.measureSec) / wins);

    for (int k = 0; k < cfg_.balancers; ++k)
        mid_.lbFlows.push_back(metrics_.addGauge(
            "lb" + std::to_string(k) + ".flows"));
    for (int s = 0; s < cfg_.serverMachines; ++s) {
        const std::string p = "m" + std::to_string(s);
        mid_.mCps.push_back(metrics_.addGauge(p + ".cps"));
        mid_.mEstablished.push_back(
            metrics_.addGauge(p + ".established"));
        mid_.mTimeWait.push_back(metrics_.addGauge(p + ".time_wait"));
        mid_.mPressure.push_back(metrics_.addGauge(p + ".pressure"));
    }
    mid_.completed = metrics_.addCounter("fleet.completed");
    mid_.failed = metrics_.addCounter("fleet.failed");
    mid_.shed = metrics_.addCounter("fleet.shed");
    mid_.upMachines = metrics_.addGauge("fleet.up_machines");
    mid_.healthyTargets = metrics_.addGauge("fleet.healthy_targets");
    mid_.successRatio = metrics_.addGauge("fleet.success_ratio");
    mid_.latency = metrics_.addHistogram("client.latency_ticks");
    mid_.fastBurn = metrics_.addGauge("slo.fast_burn");
    mid_.slowBurn = metrics_.addGauge("slo.slow_burn");
    obsServedPrev_.assign(static_cast<std::size_t>(cfg_.serverMachines),
                          0);

    // SLO tracking is config-gated, not trace-gated: it consumes only
    // aggregate load counters, so it stays live under --notrace.
    if (cfg_.sloEnabled) {
        slo_ = std::make_unique<SloTracker>(cfg_.slo);
        slo_->setIncidentLog(&incidents_);
    }
}

void
FleetTestbed::sampleObservability(Tick wstart, Tick wend)
{
    // Window deltas from cumulative client-side counters.
    const std::uint64_t completed = load_->completed();
    const std::uint64_t failed = load_->failed();
    const std::uint64_t dOk = completed - obsCompletedPrev_;
    const std::uint64_t dFail = failed - obsFailedPrev_;
    obsCompletedPrev_ = completed;
    obsFailedPrev_ = failed;

    // Latency samples appended since the previous sub-window feed both
    // the latency histogram and the latency-SLO miss count.
    const auto &lat = load_->latencySamples();
    std::uint64_t latMisses = 0;
    for (; latCursor_ < lat.size(); ++latCursor_) {
        metrics_.observe(mid_.latency, lat[latCursor_]);
        if (cfg_.slo.latencyObjective > 0 &&
            lat[latCursor_] > cfg_.slo.latencyObjective)
            ++latMisses;
    }

    // The SLO tracker runs even when the metrics registry is disabled
    // (--notrace): burn alerts are a control-plane product, not a
    // recording product.
    if (slo_)
        slo_->addWindow(wend, dOk, dFail, latMisses);

    metrics_.add(mid_.completed, dOk);
    metrics_.add(mid_.failed, dFail);
    const std::uint64_t shed = currentShedTotal();
    metrics_.add(mid_.shed, shed - obsShedPrev_);
    obsShedPrev_ = shed;

    for (std::size_t k = 0; k < balancers_.size(); ++k)
        metrics_.set(mid_.lbFlows[k],
                     static_cast<double>(balancers_[k]->flowsActive()));

    const double wsec = secondsFromTicks(wend - wstart);
    int up = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        const ServerSlot &sl = slots_[s];
        if (sl.up)
            ++up;
        const KernelStack &k = sl.gen.machine->kernel();
        metrics_.set(mid_.mEstablished[s],
                     static_cast<double>(k.stats().establishedCurr));
        metrics_.set(mid_.mTimeWait[s],
                     static_cast<double>(k.timeWaitTable().size()));
        metrics_.set(mid_.mPressure[s],
                     static_cast<double>(static_cast<int>(
                         sl.gen.machine->pressure().level())));
        // A restart swaps in a fresh generation whose served() restarts
        // at zero; treat the post-restart count as the window's delta.
        const std::uint64_t served = sl.gen.app->served();
        const std::uint64_t d = served >= obsServedPrev_[s]
                                    ? served - obsServedPrev_[s]
                                    : served;
        obsServedPrev_[s] = served;
        metrics_.set(mid_.mCps[s],
                     wsec > 0.0 ? static_cast<double>(d) / wsec : 0.0);
    }
    metrics_.set(mid_.upMachines, static_cast<double>(up));

    int healthy = 0;
    if (!balancers_.empty()) {
        const L4Balancer &b0 = *balancers_.front();
        for (int m = 0; m < b0.targetCount(); ++m)
            if (b0.healthy(m))
                ++healthy;
    }
    metrics_.set(mid_.healthyTargets, static_cast<double>(healthy));
    const std::uint64_t tot = dOk + dFail;
    metrics_.set(mid_.successRatio,
                 tot > 0 ? static_cast<double>(dOk) /
                               static_cast<double>(tot)
                         : 1.0);
    if (slo_) {
        double fb = 0.0;
        double sb = 0.0;
        for (const SloObjective &o : slo_->objectives()) {
            fb = std::max(fb, o.fastBurn);
            sb = std::max(sb, o.slowBurn);
        }
        metrics_.set(mid_.fastBurn, fb);
        metrics_.set(mid_.slowBurn, sb);
    }
    metrics_.sample(wend);
}

template <typename Fn>
void
FleetTestbed::forEachGeneration(Fn fn) const
{
    for (const ServerSlot &sl : slots_)
        fn(sl.gen);
    for (const Generation &g : retired_)
        fn(g);
}

std::uint64_t
FleetTestbed::currentFingerprint() const
{
    Fingerprint fp;
    fp.mix(fabric_->seqHash());
    fp.mix(eq_->now());
    fp.mix(load_->started());
    fp.mix(load_->completed());
    fp.mix(load_->failed());
    fp.mix(load_->responses());
    fp.mix(load_->timeouts());
    fp.mix(load_->bytesReceived());
    fp.mix(load_->synRetransmits());
    fp.mix(load_->requestRetransmits());
    fp.mix(load_->retxGiveups());
    fp.mix(load_->healthStarted());
    fp.mix(load_->healthCompleted());
    fp.mix(load_->healthFailed());
    forEachGeneration([&fp](const Generation &g) {
        const KernelStats &ks = g.machine->kernel().stats();
        fp.mix(ks.rxPackets);
        fp.mix(ks.txPackets);
        fp.mix(ks.acceptedConns);
        fp.mix(ks.rstSent);
        fp.mix(ks.socketsCreated);
        fp.mix(ks.socketsDestroyed);
        fp.mix(ks.timeWaitEntered);
        fp.mix(ks.synRcvdReaped);
        fp.mix(ks.backlogDropped);
        fp.mix(ks.synGateDropped);
        fp.mix(g.machine->cpu().totalBusyTicks());
        fp.mix(g.machine->pressure().transitions());
        fp.mix(static_cast<std::uint64_t>(
            g.machine->pressure().level()));
        fp.mix(g.app->served());
        fp.mix(g.app->servedDegraded());
        fp.mix(g.app->shedConns());
        fp.mix(g.port->txSuppressed());
        fp.mix(g.port->degradeDropped());
        fp.mix(g.port->degradeDelayed());
        if (g.admission) {
            fp.mix(g.admission->offered());
            fp.mix(g.admission->admitted());
            fp.mix(g.admission->degraded());
            fp.mix(g.admission->shed());
            fp.mix(g.admission->released());
        }
    });
    for (const auto &b : balancers_)
        fp.mix(b->counterHash());
    fp.mix(crashes_);
    fp.mix(restarts_);
    fp.mix(lbCrashes_);
    fp.mix(vipTakeovers_);
    fp.mix(corpseRsts_);
    fp.mix(blackholed_);
    fp.mix(degradesApplied_);
    fp.mix(flapTransitions_);
    fp.mix(partitionsArmed_);
    fp.mix(fabric_->partitionDropped());
    fp.mix(incidents_.hash());
    return fp.value();
}

ExperimentResult
FleetTestbed::collect()
{
    ExperimentResult r;
    collectRun(r, runMark_, *eq_, *load_, cfg_.base, checks_);

    // Window deltas of the live generations plus the counters banked by
    // generations lost mid-window. Phases, locks and utilization cover
    // live generations only.
    ServerWindow window = retiredWindow_;
    int liveCores = 0;
    for (ServerSlot &sl : slots_) {
        window += ServerWindow::read(sl.gen).since(sl.mark);
        addLiveServer(r, sl.gen);
        liveCores += sl.gen.machine->numCores();
    }
    fillWindow(r, std::move(window), liveCores);
    r.fingerprint = currentFingerprint();

    // Run totals sum over every machine generation.
    for (const ServerSlot &sl : slots_)
        addRunTotals(r, sl.gen, sl.up);
    for (const Generation &g : retired_)
        addRunTotals(r, g, /*up=*/false);

    // Fleet block.
    FleetResult &fl = r.fleet;
    fl.enabled = true;
    fl.serverMachines = cfg_.serverMachines;
    fl.balancers = cfg_.balancers;
    fl.policy = L4Balancer::policyName(cfg_.policy);
    for (const auto &b : balancers_) {
        fl.flowsCreated += b->flowsCreated();
        fl.flowsRetired += b->flowsRetired();
        fl.flowsActive += b->flowsActive();
        fl.flowsActivePeak += b->flowsActivePeak();
        fl.tupleReuse += b->tupleReuse();
        fl.idleRetired += b->idleRetired();
        fl.forwardedC2s += b->forwardedC2s();
        fl.forwardedS2c += b->forwardedS2c();
        fl.shedNoBackend += b->shedNoBackend();
        fl.shedCapacity += b->shedCapacity();
        fl.natRsts += b->natRsts();
        fl.boundedLoadFallbacks += b->boundedLoadFallbacks();
        fl.pressureAvoids += b->pressureAvoids();
        fl.probesSent += b->probesSent();
        fl.probeFailures += b->probeFailures();
        fl.ejections += b->ejections();
        fl.readmissions += b->readmissions();
        fl.drainsStarted += b->drainsStarted();
        fl.drainsCompleted += b->drainsCompleted();
        fl.undrainedFlows += b->undrainedFlows();
        fl.scoreEjections += b->scoreEjections();
        fl.rampSkips += b->rampSkips();
        fl.ejectionsCapped += b->ejectionsCapped();
    }
    fl.healthMode = L4Balancer::healthModeName(cfg_.healthMode);
    fl.restarts = restarts_;
    fl.crashes = crashes_;
    fl.lbCrashes = lbCrashes_;
    fl.vipTakeovers = vipTakeovers_;
    forEachGeneration([&fl](const Generation &g) {
        fl.txSuppressed += g.port->txSuppressed();
        fl.degradeDropped += g.port->degradeDropped();
        fl.degradeDelayed += g.port->degradeDelayed();
    });
    fl.corpseRsts = corpseRsts_;
    fl.blackholed = blackholed_;
    fl.linkPackets = fabric_->linkPackets();
    fl.linkQueuedTicks = fabric_->linkQueuedTicks();
    fl.degradesApplied = degradesApplied_;
    fl.flapTransitions = flapTransitions_;
    fl.partitionsArmed = partitionsArmed_;
    fl.partitionDropped = fabric_->partitionDropped();
    fl.incidentsTotal = incidents_.count();
    double mttdSum = 0.0, mttrSum = 0.0;
    for (const Incident &inc : incidents_.incidents()) {
        if (inc.detected) {
            ++fl.incidentsDetected;
            mttdSum += secondsFromTicks(inc.detectAt - inc.injectAt) *
                       1000.0;
        }
        if (inc.recovered) {
            ++fl.incidentsRecovered;
            mttrSum += secondsFromTicks(inc.recoverAt - inc.injectAt) *
                       1000.0;
        }
    }
    fl.mttdMsMean = fl.incidentsDetected
                        ? mttdSum / static_cast<double>(
                                        fl.incidentsDetected)
                        : 0.0;
    fl.mttrMsMean = fl.incidentsRecovered
                        ? mttrSum / static_cast<double>(
                                        fl.incidentsRecovered)
                        : 0.0;
    const std::uint64_t winCompleted = load_->completed() -
                                       runMark_.completed;
    const std::uint64_t winFailed = r.clientFailures;
    fl.requestSuccessRatio =
        winCompleted + winFailed > 0
            ? static_cast<double>(winCompleted) /
                  static_cast<double>(winCompleted + winFailed)
            : 0.0;

    // Distributed-trace stitching: closed spans (crash corpses
    // included) joined their client/LB records as they closed. In-flight
    // spans join here: a server stuck in FIN retransmission after its
    // NAT flow died (balancer failover mid-teardown) still served its
    // request; orderly-closed spans outrank these.
    forEachGeneration([this](const Generation &g) {
        for (const ConnSpanTrace &tr :
             g.machine->tracer().connSpans().liveSnapshot())
            traceLog_.stitchMachineSpan(tr);
    });
    fl.tracesStarted = traceLog_.clientStarts();
    fl.tracesCompleted = traceLog_.clientCompleted();
    fl.tracesStitched = traceLog_.machineSpansStitched();
    fl.traceDuplicates = traceLog_.duplicates();

    // Span/CPU reconciliation, fleet-wide: recorded exec-span cycles on
    // a core can never exceed what that core actually ran.
    forEachGeneration([&fl](const Generation &g) {
        Machine &m = *g.machine;
        for (int c = 0; c < m.numCores(); ++c)
            if (m.tracer().connSpans().execSelfTicks(c) >
                m.cpu().core(c).busyTicks())
                ++fl.spanReconcileViolations;
    });

    if (slo_) {
        fl.sloFastAlerts = slo_->fastAlerts();
        fl.sloSlowAlerts = slo_->slowAlerts();
        const Tick first = slo_->firstFastAlert();
        fl.sloFirstFastAlertMs =
            first > 0 ? secondsFromTicks(first) * 1000.0 : 0.0;
    }

    if (!cfg_.base.machine.traceEnabled) {
        fsim_assert(traceLog_.allocations() == 0 &&
                    "fleet tracing allocated with tracing disabled");
        fsim_assert(metrics_.allocations() == 0 &&
                    "metrics sampled with tracing disabled");
    }
    r.timeseries = metrics_.snapshot();
    r.fleetTrace = buildFleetTraceForensics(
        traceLog_, L4Balancer::kForwardDelay);
    fl.traceOrphans = r.fleetTrace.orphans;   // one walk of the records
    return r;
}

ExperimentResult
FleetTestbed::run()
{
    startLoad();
    runUntilChecked(eq_->now() + ticksFromSeconds(cfg_.base.warmupSec));
    markWindows();

    // Lock/SYN sub-window deltas stay empty at fleet scope (a restart
    // resets one machine's share mid-window).
    std::vector<LockWindow> windows = measureWindows(
        *this, cfg_.base.statWindows,
        ticksFromSeconds(cfg_.base.measureSec),
        [this](LockWindow &lw) { sampleObservability(lw.start, lw.end); });

    ExperimentResult r = collect();
    r.lockWindows = std::move(windows);
    return r;
}

ExperimentResult
runFleetExperiment(const FleetConfig &cfg)
{
    FleetTestbed bed(cfg);
    return bed.run();
}

} // namespace fsim
