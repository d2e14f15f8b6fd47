#include "harness/server.hh"

#include "app/proxy.hh"
#include "app/web_server.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "trace/trace_report.hh"

namespace fsim
{

namespace
{

/** HTTP response payload of every server app and backend. */
constexpr std::uint32_t kResponseBytes = 64;

std::uint64_t
sat(std::uint64_t after, std::uint64_t before)
{
    return after > before ? after - before : 0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // anonymous namespace

std::unique_ptr<BackendPool>
buildBackends(EventQueue &eq, Wire &wire, const ExperimentConfig &cfg,
              std::vector<IpAddr> &addrs)
{
    if (cfg.app != AppKind::kHaproxy)
        return nullptr;
    const IpAddr first = 0x0a010001;   // 10.1.0.1
    const IpAddr last = first + static_cast<IpAddr>(cfg.backendCount - 1);
    auto pool = std::make_unique<BackendPool>(
        eq, wire, first, last, kResponseBytes, ticksFromUsec(100));
    pool->setKeepAlive(cfg.backendKeepAlive);
    for (IpAddr a = first; a <= last; ++a)
        addrs.push_back(a);
    return pool;
}

Server
buildServer(EventQueue &eq, Wire &link, const ExperimentConfig &cfg,
            const MachineConfig &mc, const std::vector<IpAddr> &backendAddrs)
{
    Server s;
    s.machine = std::make_unique<Machine>(eq, link, mc);
    if (cfg.app == AppKind::kHaproxy) {
        auto proxy = std::make_unique<Proxy>(*s.machine, backendAddrs,
                                             cfg.backendPort,
                                             kResponseBytes);
        proxy->setBackendTimeout(cfg.backendTimeout);
        s.app = std::move(proxy);
    } else {
        s.app = std::make_unique<WebServer>(
            *s.machine, kResponseBytes,
            cfg.requestsPerConn > 1 || cfg.longLivedPermille > 0);
    }
    if (cfg.listenBacklog > 0)
        s.machine->kernel().setListenBacklog(cfg.listenBacklog);
    s.app->setAcceptMutex(cfg.acceptMutex);
    s.app->start();

    if (mc.overload.enabled) {
        // The controller reads the machine-owned PressureState; the app
        // consults it once per accepted connection.
        s.admission = std::make_unique<AdmissionController>(
            s.machine->config().overload, &s.machine->pressure(),
            s.machine->numCores());
        s.app->setAdmission(s.admission.get(),
                            &s.machine->config().overload);
    }
    return s;
}

HttpLoad::Config
clientConfig(const ExperimentConfig &cfg, std::vector<IpAddr> addrs,
             Port port, int concurrency)
{
    HttpLoad::Config lc;
    lc.serverAddrs = std::move(addrs);
    lc.serverPort = port;
    lc.concurrency = concurrency;
    lc.requestsPerConn = cfg.requestsPerConn;
    lc.timeout = cfg.clientTimeout;
    lc.seed = cfg.machine.seed ^ 0xabcdef;
    lc.maxConns = cfg.maxConns;
    lc.rtoBase = cfg.clientRtoBase;
    lc.healthEvery = cfg.clientHealthEvery;
    if (cfg.machine.overload.healthRequestBytes > 0)
        lc.healthRequestBytes = cfg.machine.overload.healthRequestBytes;
    lc.longLivedPermille = cfg.longLivedPermille;
    lc.longLivedRequests = cfg.longLivedRequests;
    lc.longLivedThink = cfg.longLivedThink;
    lc.clientPortSpan = cfg.clientPortSpan;
    if (cfg.clientIps > 0)
        lc.clientIps = cfg.clientIps;
    return lc;
}

void
registerServerInvariants(InvariantRegistry &checks, Server &s,
                         HttpLoad &load, Wire &wire)
{
    registerStandardInvariants(checks, *s.machine, load, wire);
    if (s.admission)
        registerOverloadInvariants(checks, *s.admission, *s.machine,
                                   *s.app);
}

std::map<std::string, LockClassStats>
lockDelta(const std::map<std::string, LockClassStats> &before,
          const std::map<std::string, LockClassStats> &after)
{
    std::map<std::string, LockClassStats> out;
    for (const auto &kv : after) {
        LockClassStats d = kv.second;
        auto it = before.find(kv.first);
        if (it != before.end()) {
            d.acquisitions = sat(d.acquisitions, it->second.acquisitions);
            d.contentions = sat(d.contentions, it->second.contentions);
            d.waitTicks = sat(d.waitTicks, it->second.waitTicks);
            d.holdTicks = sat(d.holdTicks, it->second.holdTicks);
        }
        out[kv.first] = d;
    }
    return out;
}

ServerWindow
ServerWindow::read(const Server &s)
{
    Machine &m = *s.machine;
    ServerWindow w;
    w.phases = m.tracer().phaseSnapshot();
    w.locks = m.locks().snapshot();
    w.kernel = m.kernel().stats();
    w.served = s.app->served();
    w.cacheAccesses = m.cache().totalAccesses();
    w.cacheMisses = m.cache().totalMisses();
    w.spansCompleted = m.tracer().connSpans().completedCount();
    return w;
}

ServerWindow
ServerWindow::start(Server &s)
{
    s.machine->markWindow();
    return read(s);
}

ServerWindow
ServerWindow::since(const ServerWindow &before) const
{
    ServerWindow d;
    d.phases = phaseDelta(before.phases, phases);
    d.locks = lockDelta(before.locks, locks);
    for (auto field : kWindowCounters)
        d.kernel.*field = sat(kernel.*field, before.kernel.*field);
    d.served = sat(served, before.served);
    d.cacheAccesses = sat(cacheAccesses, before.cacheAccesses);
    d.cacheMisses = sat(cacheMisses, before.cacheMisses);
    d.spansCompleted = sat(spansCompleted, before.spansCompleted);
    return d;
}

ServerWindow &
ServerWindow::operator+=(const ServerWindow &o)
{
    for (const auto &row : o.phases.perCore)
        phases.perCore.push_back(row);
    for (const auto &kv : o.phases.folded)
        phases.folded[kv.first] += kv.second;
    phases.untracked += o.phases.untracked;
    for (const auto &kv : o.locks) {
        LockClassStats &dst = locks[kv.first];
        dst.acquisitions += kv.second.acquisitions;
        dst.contentions += kv.second.contentions;
        dst.waitTicks += kv.second.waitTicks;
        dst.holdTicks += kv.second.holdTicks;
    }
    for (auto field : kWindowCounters)
        kernel.*field += o.kernel.*field;
    served += o.served;
    cacheAccesses += o.cacheAccesses;
    cacheMisses += o.cacheMisses;
    spansCompleted += o.spansCompleted;
    return *this;
}

RunMark
RunMark::take(const EventQueue &eq, HttpLoad &load)
{
    load.markWindow();
    RunMark m;
    m.tick = eq.now();
    m.completed = load.completed();
    m.failed = load.failed();
    m.eventsRun = eq.executed();
    m.eventsScheduled = eq.scheduled();
    return m;
}

void
runChecked(EventQueue &eq, InvariantRegistry &checks,
           const ExperimentConfig &cfg, Tick limit)
{
    if (cfg.checkLevel != CheckLevel::kPeriodic) {
        eq.runUntil(limit);
        return;
    }
    Tick step = ticksFromSeconds(cfg.checkIntervalSec);
    if (step == 0)
        step = 1;
    while (eq.now() < limit) {
        eq.runUntil(std::min(limit, eq.now() + step));
        checks.runAll(eq.now());
    }
}

void
collectRun(ExperimentResult &r, const RunMark &mark, const EventQueue &eq,
           const HttpLoad &load, const ExperimentConfig &cfg,
           InvariantRegistry &checks)
{
    // Every collection point doubles as an invariant pass (the kFinal
    // default): manual drivers get checked exactly where they measure.
    if (cfg.checkLevel != CheckLevel::kOff)
        checks.runAll(eq.now());
    r.invariants = checks.report();

    r.cps = load.throughputSinceMark();
    r.rps = load.requestThroughputSinceMark();
    r.clientFailures = load.failed() - mark.failed;
    r.windowSpan = eq.now() - mark.tick;
    r.simTicks = r.windowSpan;
    r.simEventsRun = eq.executed() - mark.eventsRun;
    r.simEventsScheduled = eq.scheduled() - mark.eventsScheduled;

    // Overload block, client side: the window's latency tail and the
    // health-probe run totals.
    OverloadResult &ov = r.overload;
    ov.enabled = cfg.machine.overload.enabled;
    ov.spec = serializeOverloadSpec(cfg.machine.overload);
    const double ps[] = {0.50, 0.99};
    Tick lat[2];
    load.latencyPercentilesSinceMark(ps, lat);
    ov.latencyP50 = lat[0];
    ov.latencyP99 = lat[1];
    ov.latencySamples = load.latencySamplesSinceMark();
    ov.healthProbesStarted = load.healthStarted();
    ov.healthProbesCompleted = load.healthCompleted();
    ov.healthProbesFailed = load.healthFailed();
}

void
fillWindow(ExperimentResult &r, ServerWindow d, int cores)
{
    r.served = d.served;
    r.slowPathAccepts = d.kernel.slowPathAccepts;
    r.steeredPackets = d.kernel.steeredPackets;
    r.rxPackets = d.kernel.rxPackets;
    r.l3MissRate = ratio(d.cacheMisses, d.cacheAccesses);
    r.localPktProportion =
        ratio(d.kernel.activePktLocal, d.kernel.activePktTotal);

    // Lock cycle shares: spin-wait cycles per class over the window's
    // total core-cycles (the "spin lock consumes 9%/11% of CPU cycles"
    // framing of section 1).
    r.locks = std::move(d.locks);
    const double totalCycles = static_cast<double>(r.windowSpan) * cores;
    if (totalCycles > 0) {
        for (const auto &kv : r.locks)
            r.lockCycleShare[kv.first] =
                static_cast<double>(kv.second.waitTicks) / totalCycles;
    }

    // Trace-derived breakdowns: where did every window cycle go?
    r.phaseCycles = std::move(d.phases);
    r.phases = phaseBreakdown(r.phaseCycles, r.windowSpan);
    r.foldedStacks = foldedStacks(r.phaseCycles);
}

void
addLiveServer(ExperimentResult &r, const Server &s)
{
    Machine &m = *s.machine;
    for (double u : m.utilizationSinceMark())
        r.coreUtil.push_back(u);
    if (!m.config().traceEnabled) {
        // --notrace contract: a disabled span log must never have
        // touched the allocator (the hooks are all gated on enabled()).
        fsim_assert(m.tracer().connSpans().allocations() == 0 &&
                    "span tracing allocated with tracing disabled");
    }
}

void
addRunTotals(ExperimentResult &r, const Server &s, bool up)
{
    // Overload block: admission run totals and pressure peaks. Each
    // controller's arithmetic identities survive summation.
    OverloadResult &ov = r.overload;
    if (const AdmissionController *a = s.admission.get()) {
        ov.offered += a->offered();
        ov.admitted += a->admitted();
        ov.degraded += a->degraded();
        ov.shed += a->shed();
        ov.shedDeadline += a->shedDeadline();
        ov.shedWorkerCap += a->shedWorkerCap();
        ov.shedPressure += a->shedPressure();
        ov.released += a->released();
        ov.inflight += a->inflightTotal();
        ov.healthOffered += a->healthOffered();
        ov.healthAdmitted += a->healthAdmitted();
    }
    ov.servedDegraded += s.app->servedDegraded();
    KernelStack &k = s.machine->kernel();
    const KernelStats &ks = k.stats();
    ov.backlogDropped += ks.backlogDropped;
    ov.synGateDropped += ks.synGateDropped;
    const PressureState &pr = s.machine->pressure();
    ov.pressureTransitions += pr.transitions();
    if (up)
        ov.pressureLevel =
            std::max(ov.pressureLevel, static_cast<int>(pr.level()));
    ov.pressurePeak =
        std::max(ov.pressurePeak, static_cast<int>(pr.peakLevel()));
    ov.softirqDepthPeak =
        std::max<std::uint64_t>(ov.softirqDepthPeak, pr.softirqDepthPeak());
    ov.acceptDepthPeak =
        std::max<std::uint64_t>(ov.acceptDepthPeak, pr.acceptDepthPeak());
    for (int p = 0; p < s.machine->numCores(); ++p)
        ov.epollReadyPeak = std::max<std::uint64_t>(
            ov.epollReadyPeak, k.process(p).epoll->readyPeak());

    // Connection-lifetime census: arena footprint, TIME_WAIT lifecycle,
    // port pressure, and established-hash lookup cost.
    ConnResult &cn = r.conn;
    const TcbArena &arena = k.tcbArena();
    cn.tcbLive += arena.live();
    cn.tcbLivePeak += arena.peakLive();
    cn.tcbCreated += arena.totalCreated();
    cn.slabBytes += arena.slabBytes();
    if (cn.bytesPerConn == 0)
        cn.bytesPerConn = arena.bytesPerConn();
    cn.establishedCurr += ks.establishedCurr;
    cn.establishedPeak += ks.establishedPeak;
    cn.timeWaitCurr += k.timeWaitTable().size();
    cn.timeWaitPeak += k.timeWaitTable().peakSize();
    cn.timeWaitEntered += ks.timeWaitEntered;
    cn.timeWaitReaped += ks.timeWaitReaped;
    cn.timeWaitRecycled += ks.timeWaitRecycled;
    cn.timeWaitReused += ks.timeWaitReused;
    cn.timeWaitSynDropped += ks.timeWaitSynDropped;
    cn.timeWaitAcks += ks.timeWaitAcks;
    cn.portAllocFailures += ks.portAllocFailures;
    cn.ehashLookups += k.ehashLookups();
    cn.ehashProbesWalked += k.ehashProbesWalked();
    cn.ehashLookupCycles += k.ehashLookupCycles();
    cn.ehashResizes += k.ehashResizes();
    cn.avgProbeLen = ratio(cn.ehashProbesWalked, cn.ehashLookups);
    cn.cyclesPerLookup = ratio(cn.ehashLookupCycles, cn.ehashLookups);
}

} // namespace fsim
