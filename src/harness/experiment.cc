#include "harness/experiment.hh"

#include <algorithm>

#include "check/fingerprint.hh"

namespace fsim
{

double
ExperimentResult::maxUtil() const
{
    double m = 0.0;
    for (double u : coreUtil)
        m = std::max(m, u);
    return m;
}

double
ExperimentResult::minUtil() const
{
    if (coreUtil.empty())
        return 0.0;
    double m = coreUtil.front();
    for (double u : coreUtil)
        m = std::min(m, u);
    return m;
}

double
ExperimentResult::avgUtil() const
{
    if (coreUtil.empty())
        return 0.0;
    double s = 0.0;
    for (double u : coreUtil)
        s += u;
    return s / static_cast<double>(coreUtil.size());
}

Testbed::Testbed(const ExperimentConfig &cfg)
    : cfg_(cfg)
{
    eq_ = std::make_unique<EventQueue>();
    wire_ = std::make_unique<Wire>(*eq_, kWireDelay);
    if (cfg_.lossRate > 0.0)
        wire_->setLossRate(cfg_.lossRate, cfg_.machine.seed ^ 0x10ad);
    std::vector<IpAddr> backendAddrs;
    backends_ = buildBackends(*eq_, *wire_, cfg_, backendAddrs);
    server_ = buildServer(*eq_, *wire_, cfg_, cfg_.machine, backendAddrs);
    Machine &m = machine();
    load_ = std::make_unique<HttpLoad>(
        *eq_, *wire_,
        clientConfig(cfg_, m.addrs(), m.servicePort(),
                     cfg_.concurrencyPerCore * m.numCores()));

    if (!cfg_.faults.empty()) {
        faults_ = std::make_unique<FaultInjector>(*eq_, *wire_, m.nic(),
                                                  backends_.get(),
                                                  cfg_.faults);
        faults_->arm(m.addrs(), m.servicePort());
    }

    if (cfg_.checkLevel != CheckLevel::kOff)
        registerServerInvariants(checks_, server_, *load_, *wire_);
}

Testbed::~Testbed() = default;

void
Testbed::runUntilChecked(Tick limit)
{
    runChecked(*eq_, checks_, cfg_, limit);
}

std::uint64_t
Testbed::currentFingerprint() const
{
    // The wire's delivery-sequence hash already pins the entire network
    // behavior of the run; fold the simulator's independent counters on
    // top so a bookkeeping divergence (client, kernel, clock) changes
    // the fingerprint even if it never reached the wire. Everything
    // folded here is simulated state — trace configuration must not
    // move any of it.
    Machine &m = *server_.machine;
    const AppBase &app = *server_.app;
    const AdmissionController *adm = server_.admission.get();
    Fingerprint fp;
    fp.mix(wire_->seqHash());
    fp.mix(eq_->now());
    fp.mix(load_->started());
    fp.mix(load_->completed());
    fp.mix(load_->failed());
    fp.mix(load_->responses());
    fp.mix(load_->timeouts());
    fp.mix(load_->bytesReceived());
    fp.mix(app.served());
    const KernelStats &ks = m.kernel().stats();
    fp.mix(ks.rxPackets);
    fp.mix(ks.txPackets);
    fp.mix(ks.steeredPackets);
    fp.mix(ks.rstSent);
    fp.mix(ks.acceptedConns);
    fp.mix(ks.activeConns);
    fp.mix(ks.slowPathAccepts);
    fp.mix(ks.socketsCreated);
    fp.mix(ks.socketsDestroyed);
    fp.mix(ks.acceptOverflows);
    fp.mix(ks.timeWaitReaped);
    fp.mix(ks.synRetransmits);
    fp.mix(ks.synDropped);
    fp.mix(ks.synCookiesSent);
    fp.mix(ks.synCookiesValidated);
    fp.mix(ks.synRcvdReaped);
    fp.mix(ks.acceptQueueRsts);
    // Connection-lifetime subsystem counters: TW lifecycle decisions,
    // port exhaustion, ehash probing work, and the arena census are all
    // deterministic simulated behavior.
    fp.mix(ks.establishedPeak);
    fp.mix(ks.timeWaitEntered);
    fp.mix(ks.timeWaitRecycled);
    fp.mix(ks.timeWaitReused);
    fp.mix(ks.timeWaitSynDropped);
    fp.mix(ks.timeWaitAcks);
    fp.mix(ks.portAllocFailures);
    fp.mix(m.kernel().tcbArena().totalCreated());
    fp.mix(m.kernel().tcbArena().peakLive());
    fp.mix(m.kernel().timeWaitTable().peakSize());
    fp.mix(m.kernel().ehashLookups());
    fp.mix(m.kernel().ehashProbesWalked());
    fp.mix(m.kernel().ehashLookupCycles());
    fp.mix(m.kernel().ehashResizes());
    fp.mix(wire_->duplicated());
    fp.mix(load_->synRetransmits());
    fp.mix(load_->requestRetransmits());
    fp.mix(load_->retxGiveups());
    fp.mix(m.cpu().totalBusyTicks());
    fp.mix(m.cache().totalAccesses());
    fp.mix(m.cache().totalMisses());
    // Overload-control state is simulated behavior too: a divergence in
    // pressure transitions or admission decisions must flip the
    // fingerprint even when the goodput happens to match.
    fp.mix(ks.backlogDropped);
    fp.mix(ks.synGateDropped);
    fp.mix(m.pressure().transitions());
    fp.mix(static_cast<std::uint64_t>(m.pressure().level()));
    fp.mix(app.servedDegraded());
    fp.mix(app.shedConns());
    fp.mix(load_->healthStarted());
    fp.mix(load_->healthCompleted());
    fp.mix(load_->healthFailed());
    if (adm) {
        fp.mix(adm->offered());
        fp.mix(adm->admitted());
        fp.mix(adm->degraded());
        fp.mix(adm->shedDeadline());
        fp.mix(adm->shedWorkerCap());
        fp.mix(adm->shedPressure());
        fp.mix(adm->released());
        fp.mix(adm->healthOffered());
        fp.mix(adm->healthAdmitted());
        fp.mix(adm->releaseUnderflows());
    }
    return fp.value();
}

void
Testbed::startLoad()
{
    if (loadStarted_)
        return;
    loadStarted_ = true;
    load_->start();
}

void
Testbed::markWindows()
{
    mark_ = ServerWindow::start(server_);
    runMark_ = RunMark::take(*eq_, *load_);
    machine().tracer().resetQueueDepths(eq_->now());
}

ExperimentResult
Testbed::collect()
{
    ExperimentResult r;
    collectRun(r, runMark_, *eq_, *load_, cfg_, checks_);
    addLiveServer(r, server_);
    fillWindow(r, ServerWindow::read(server_).since(mark_),
               machine().numCores());

    const Tracer &tr = machine().tracer();
    for (int q = 0; q < kNumTraceQueues; ++q) {
        auto qid = static_cast<TraceQueueId>(q);
        std::vector<QueueSample> tl = queueTimeline(tr, qid);
        if (!tl.empty())
            r.queueTimelines[traceQueueName(qid)] = std::move(tl);
    }

    r.spanForensics =
        buildSpanForensics(tr.connSpans(), mark_.spansCompleted);

    r.fingerprint = currentFingerprint();
    addRunTotals(r, server_, /*up=*/true);
    return r;
}

ExperimentResult
Testbed::run()
{
    startLoad();
    runUntilChecked(eq_->now() + ticksFromSeconds(cfg_.warmupSec));
    markWindows();

    // Per-sub-window lockstat and SYN-path deltas make contention
    // evolution and fault windows visible.
    ServerWindow prev = mark_;
    std::vector<LockWindow> windows = measureWindows(
        *this, cfg_.statWindows, ticksFromSeconds(cfg_.measureSec),
        [&](LockWindow &lw) {
            ServerWindow cur = ServerWindow::read(server_);
            ServerWindow d = cur.since(prev);
            lw.locks = std::move(d.locks);
            lw.synRetransmits = d.kernel.synRetransmits;
            lw.synCookiesSent = d.kernel.synCookiesSent;
            lw.synCookiesValidated = d.kernel.synCookiesValidated;
            lw.acceptQueueRsts = d.kernel.acceptQueueRsts;
            prev = std::move(cur);
        });

    ExperimentResult r = collect();
    r.lockWindows = std::move(windows);
    return r;
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    Testbed bed(cfg);
    return bed.run();
}

} // namespace fsim
