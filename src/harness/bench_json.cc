#include "harness/bench_json.hh"

#include <cstdio>
#include <utility>

#include "check/fingerprint.hh"
#include "trace/json_writer.hh"

namespace fsim
{

namespace
{

void
writeLockClass(JsonWriter &w, const LockClassStats &s)
{
    w.beginObject();
    w.key("acquisitions").value(s.acquisitions);
    w.key("contentions").value(s.contentions);
    w.key("wait_ticks").value(s.waitTicks);
    w.key("hold_ticks").value(s.holdTicks);
    w.key("max_wait_ticks").value(static_cast<std::uint64_t>(
        s.maxWaitTicks));
    w.endObject();
}

void
writeFleet(JsonWriter &w, const FleetResult &fl)
{
    w.key("fleet").beginObject();
    w.key("server_machines").value(
        static_cast<std::uint64_t>(fl.serverMachines));
    w.key("balancers").value(static_cast<std::uint64_t>(fl.balancers));
    w.key("policy").value(fl.policy);
    w.key("flows_created").value(fl.flowsCreated);
    w.key("flows_retired").value(fl.flowsRetired);
    w.key("flows_active").value(fl.flowsActive);
    w.key("flows_active_peak").value(fl.flowsActivePeak);
    w.key("tuple_reuse").value(fl.tupleReuse);
    w.key("idle_retired").value(fl.idleRetired);
    w.key("forwarded_c2s").value(fl.forwardedC2s);
    w.key("forwarded_s2c").value(fl.forwardedS2c);
    w.key("shed_no_backend").value(fl.shedNoBackend);
    w.key("shed_capacity").value(fl.shedCapacity);
    w.key("nat_rsts").value(fl.natRsts);
    w.key("bounded_load_fallbacks").value(fl.boundedLoadFallbacks);
    w.key("pressure_avoids").value(fl.pressureAvoids);
    w.key("probes_sent").value(fl.probesSent);
    w.key("probe_failures").value(fl.probeFailures);
    w.key("ejections").value(fl.ejections);
    w.key("readmissions").value(fl.readmissions);
    w.key("drains_started").value(fl.drainsStarted);
    w.key("drains_completed").value(fl.drainsCompleted);
    w.key("undrained_flows").value(fl.undrainedFlows);
    w.key("restarts").value(fl.restarts);
    w.key("crashes").value(fl.crashes);
    w.key("lb_crashes").value(fl.lbCrashes);
    w.key("vip_takeovers").value(fl.vipTakeovers);
    w.key("tx_suppressed").value(fl.txSuppressed);
    w.key("corpse_rsts").value(fl.corpseRsts);
    w.key("blackholed").value(fl.blackholed);
    w.key("link_packets").value(fl.linkPackets);
    w.key("link_queued_ticks").value(fl.linkQueuedTicks);
    w.key("request_success_ratio").value(fl.requestSuccessRatio);
    w.key("health_mode").value(fl.healthMode);
    w.key("score_ejections").value(fl.scoreEjections);
    w.key("ramp_skips").value(fl.rampSkips);
    w.key("ejections_capped").value(fl.ejectionsCapped);
    w.key("degrades_applied").value(fl.degradesApplied);
    w.key("flap_transitions").value(fl.flapTransitions);
    w.key("partitions_armed").value(fl.partitionsArmed);
    w.key("degrade_dropped").value(fl.degradeDropped);
    w.key("degrade_delayed").value(fl.degradeDelayed);
    w.key("partition_dropped").value(fl.partitionDropped);
    w.key("incidents_total").value(fl.incidentsTotal);
    w.key("incidents_detected").value(fl.incidentsDetected);
    w.key("incidents_recovered").value(fl.incidentsRecovered);
    w.key("mttd_ms_mean").value(fl.mttdMsMean);
    w.key("mttr_ms_mean").value(fl.mttrMsMean);
    w.key("traces_started").value(fl.tracesStarted);
    w.key("traces_completed").value(fl.tracesCompleted);
    w.key("traces_stitched").value(fl.tracesStitched);
    w.key("trace_orphans").value(fl.traceOrphans);
    w.key("trace_duplicates").value(fl.traceDuplicates);
    w.key("span_reconcile_violations").value(fl.spanReconcileViolations);
    w.key("slo_fast_alerts").value(fl.sloFastAlerts);
    w.key("slo_slow_alerts").value(fl.sloSlowAlerts);
    w.key("slo_first_fast_alert_ms").value(fl.sloFirstFastAlertMs);
    w.endObject();
}

void
writeTimeseries(JsonWriter &w, const MetricsSnapshot &ts)
{
    w.key("timeseries").beginObject();
    w.key("sample_period").value(static_cast<std::uint64_t>(ts.samplePeriod));
    w.key("series").beginArray();
    for (const MetricSeries &s : ts.series) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("kind").value(metricKindName(s.kind));
        w.key("points").beginArray();
        for (const auto &pt : s.points) {
            w.beginArray();
            w.value(static_cast<std::uint64_t>(pt.first));
            w.value(pt.second);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeFleetTrace(JsonWriter &w, const FleetTraceForensics &ft)
{
    w.key("fleet_trace").beginObject();
    w.key("traces_completed").value(ft.tracesCompleted);
    w.key("orphans").value(ft.orphans);
    w.key("duplicates").value(ft.duplicates);
    w.key("stitched").value(ft.stitched);
    w.key("e2e_p50").value(static_cast<std::uint64_t>(ft.e2eP50));
    w.key("e2e_p99").value(static_cast<std::uint64_t>(ft.e2eP99));
    w.key("e2e_p999").value(static_cast<std::uint64_t>(ft.e2eP999));
    w.key("dominant_p50").value(ft.dominantP50);
    w.key("dominant_p99").value(ft.dominantP99);
    w.key("dominant_p999").value(ft.dominantP999);
    w.key("hops").beginArray();
    for (const FleetHopStat &h : ft.hops) {
        w.beginObject();
        w.key("hop").value(h.hop);
        w.key("p50").value(static_cast<std::uint64_t>(h.p50));
        w.key("p99").value(static_cast<std::uint64_t>(h.p99));
        w.key("p999").value(static_cast<std::uint64_t>(h.p999));
        w.key("max").value(static_cast<std::uint64_t>(h.max));
        w.key("share").value(h.share);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeLatencyStages(JsonWriter &w, const SpanForensics &sf)
{
    w.key("latency_stages").beginObject();
    w.key("completed").value(sf.completed);
    w.key("live").value(sf.live);
    w.key("shed").value(sf.shed);
    w.key("spans_recorded").value(sf.spansRecorded);
    w.key("spans_dropped").value(sf.spansDropped);
    w.key("traces_dropped").value(sf.tracesDropped);
    w.key("dominant_tail_stage").value(sf.dominantTailStage);
    w.key("stages").beginArray();
    for (const StagePercentiles &sp : sf.stages) {
        w.beginObject();
        w.key("stage").value(connStageName(sp.stage));
        w.key("count").value(sp.count);
        w.key("p50").value(static_cast<std::uint64_t>(sp.p50));
        w.key("p90").value(static_cast<std::uint64_t>(sp.p90));
        w.key("p99").value(static_cast<std::uint64_t>(sp.p99));
        w.key("p999").value(static_cast<std::uint64_t>(sp.p999));
        w.key("max").value(static_cast<std::uint64_t>(sp.max));
        w.key("total_ticks").value(sp.totalTicks);
        w.endObject();
    }
    w.endArray();
    w.key("exemplars").beginArray();
    for (const ExemplarBreakdown &ex : sf.exemplars) {
        w.beginObject();
        w.key("percentile").value(ex.percentile);
        w.key("conn_id").value(ex.connId);
        w.key("latency").value(static_cast<std::uint64_t>(ex.latency));
        w.key("unattributed").value(static_cast<std::uint64_t>(
            ex.unattributed));
        w.key("stages").beginObject();
        for (int s = 0; s < kNumConnStages; ++s) {
            if (ex.stageTicks[static_cast<std::size_t>(s)] == 0 &&
                ex.stageCounts[static_cast<std::size_t>(s)] == 0)
                continue;
            w.key(connStageName(static_cast<ConnStage>(s)))
                .value(static_cast<std::uint64_t>(
                    ex.stageTicks[static_cast<std::size_t>(s)]));
        }
        w.endObject();
        w.key("cores").beginArray();
        for (int c = 0; c < ConnSpanFold::kMaxCores; ++c)
            if (ex.cores[static_cast<std::size_t>(c)])
                w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

const char *
kernelFlavorName(KernelFlavor f)
{
    switch (f) {
      case KernelFlavor::kBase2632:
        return "base-2.6.32";
      case KernelFlavor::kLinux313:
        return "linux-3.13";
      case KernelFlavor::kFastsocket:
        return "fastsocket";
    }
    return "unknown";
}

BenchJsonReport::BenchJsonReport(std::string bench_name)
    : name_(std::move(bench_name))
{
}

void
BenchJsonReport::addRow(const std::string &label,
                        const ExperimentConfig &cfg,
                        const ExperimentResult &r)
{
    rows_.push_back(Row{label, cfg, r});
}

const std::string &
BenchJsonReport::rowLabel(std::size_t i) const
{
    return rows_.at(i).label;
}

std::uint64_t
BenchJsonReport::rowFingerprint(std::size_t i) const
{
    return rows_.at(i).res.fingerprint;
}

const InvariantReport &
BenchJsonReport::rowInvariants(std::size_t i) const
{
    return rows_.at(i).res.invariants;
}

const ExperimentResult &
BenchJsonReport::rowResult(std::size_t i) const
{
    return rows_.at(i).res;
}

std::string
BenchJsonReport::str() const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema_version").value(kSchemaVersion);
    w.key("bench").value(name_);
    w.key("rows").beginArray();

    for (const Row &row : rows_) {
        const ExperimentConfig &cfg = row.cfg;
        const ExperimentResult &r = row.res;

        w.beginObject();
        w.key("label").value(row.label);

        w.key("config").beginObject();
        w.key("app").value(cfg.app == AppKind::kHaproxy ? "haproxy"
                                                        : "nginx");
        w.key("cores").value(cfg.machine.cores);
        w.key("flavor").value(kernelFlavorName(cfg.machine.kernel.flavor));
        w.key("fast_vfs").value(cfg.machine.kernel.fastVfs);
        w.key("local_listen").value(cfg.machine.kernel.localListen);
        w.key("rfd").value(cfg.machine.kernel.rfd);
        w.key("local_established")
            .value(cfg.machine.kernel.localEstablished);
        w.key("syn_cookies").value(cfg.machine.kernel.synCookies);
        w.key("concurrency_per_core").value(cfg.concurrencyPerCore);
        w.key("measure_sec").value(cfg.measureSec);
        w.key("trace_enabled").value(cfg.machine.traceEnabled);
        w.endObject();

        w.key("metrics").beginObject();
        w.key("cps").value(r.cps);
        w.key("rps").value(r.rps);
        w.key("l3_miss_rate").value(r.l3MissRate);
        w.key("local_pkt_proportion").value(r.localPktProportion);
        w.key("served").value(r.served);
        w.key("client_failures").value(r.clientFailures);
        w.key("slow_path_accepts").value(r.slowPathAccepts);
        w.key("steered_packets").value(r.steeredPackets);
        w.key("rx_packets").value(r.rxPackets);
        w.key("avg_util").value(r.avgUtil());
        w.key("max_util").value(r.maxUtil());
        w.key("core_util").beginArray();
        for (double u : r.coreUtil)
            w.value(u);
        w.endArray();
        w.endObject();

        w.key("phases").beginObject();
        w.key("names").beginArray();
        for (int p = 0; p < kNumPhases; ++p)
            w.value(phaseName(static_cast<Phase>(p)));
        w.endArray();
        w.key("per_core").beginArray();
        for (const auto &core : r.phases.fractions) {
            w.beginArray();
            for (double f : core)
                w.value(f);
            w.endArray();
        }
        w.endArray();
        w.key("machine").beginObject();
        for (int p = 0; p < kNumPhases; ++p) {
            auto ph = static_cast<Phase>(p);
            w.key(phaseName(ph)).value(r.phases.total(ph));
        }
        w.endObject();
        w.endObject();

        w.key("folded_stacks").beginArray();
        for (const auto &fs : r.foldedStacks) {
            w.beginObject();
            w.key("stack").value(fs.first);
            w.key("cycles").value(fs.second);
            w.endObject();
        }
        w.endArray();

        w.key("locks").beginObject();
        for (const auto &kv : r.locks) {
            w.key(kv.first);
            writeLockClass(w, kv.second);
        }
        w.endObject();

        w.key("lock_cycle_share").beginObject();
        for (const auto &kv : r.lockCycleShare)
            w.key(kv.first).value(kv.second);
        w.endObject();

        // Optional: present only when a fault plan was armed.
        if (!cfg.faults.empty()) {
            w.key("faults").beginObject();
            w.key("plan").value(serializeFaultPlan(cfg.faults));
            w.endObject();
        }

        const OverloadResult &ov = r.overload;
        w.key("overload").beginObject();
        w.key("enabled").value(ov.enabled);
        w.key("spec").value(ov.spec);
        w.key("offered").value(ov.offered);
        w.key("admitted").value(ov.admitted);
        w.key("degraded").value(ov.degraded);
        w.key("shed").value(ov.shed);
        w.key("shed_deadline").value(ov.shedDeadline);
        w.key("shed_worker_cap").value(ov.shedWorkerCap);
        w.key("shed_pressure").value(ov.shedPressure);
        w.key("released").value(ov.released);
        w.key("inflight").value(ov.inflight);
        w.key("health_offered").value(ov.healthOffered);
        w.key("health_admitted").value(ov.healthAdmitted);
        w.key("served_degraded").value(ov.servedDegraded);
        w.key("backlog_dropped").value(ov.backlogDropped);
        w.key("syn_gate_dropped").value(ov.synGateDropped);
        w.key("pressure_transitions").value(ov.pressureTransitions);
        w.key("pressure_level").value(ov.pressureLevel);
        w.key("pressure_peak").value(ov.pressurePeak);
        w.key("softirq_depth_peak").value(ov.softirqDepthPeak);
        w.key("accept_depth_peak").value(ov.acceptDepthPeak);
        w.key("epoll_ready_peak").value(ov.epollReadyPeak);
        w.key("latency_p50_ticks").value(static_cast<std::uint64_t>(
            ov.latencyP50));
        w.key("latency_p99_ticks").value(static_cast<std::uint64_t>(
            ov.latencyP99));
        w.key("latency_samples").value(ov.latencySamples);
        w.key("health_probes_started").value(ov.healthProbesStarted);
        w.key("health_probes_completed").value(ov.healthProbesCompleted);
        w.key("health_probes_failed").value(ov.healthProbesFailed);
        w.endObject();

        const ConnResult &cn = r.conn;
        w.key("conn").beginObject();
        w.key("tcb_live").value(cn.tcbLive);
        w.key("tcb_live_peak").value(cn.tcbLivePeak);
        w.key("tcb_created").value(cn.tcbCreated);
        w.key("slab_bytes").value(cn.slabBytes);
        w.key("bytes_per_conn").value(cn.bytesPerConn);
        w.key("established_curr").value(cn.establishedCurr);
        w.key("established_peak").value(cn.establishedPeak);
        w.key("time_wait_curr").value(cn.timeWaitCurr);
        w.key("time_wait_peak").value(cn.timeWaitPeak);
        w.key("time_wait_entered").value(cn.timeWaitEntered);
        w.key("time_wait_reaped").value(cn.timeWaitReaped);
        w.key("time_wait_recycled").value(cn.timeWaitRecycled);
        w.key("time_wait_reused").value(cn.timeWaitReused);
        w.key("time_wait_syn_dropped").value(cn.timeWaitSynDropped);
        w.key("time_wait_acks").value(cn.timeWaitAcks);
        w.key("port_alloc_failures").value(cn.portAllocFailures);
        w.key("ehash_lookups").value(cn.ehashLookups);
        w.key("ehash_probes_walked").value(cn.ehashProbesWalked);
        w.key("ehash_lookup_cycles").value(cn.ehashLookupCycles);
        w.key("ehash_resizes").value(cn.ehashResizes);
        w.key("avg_probe_len").value(cn.avgProbeLen);
        w.key("cycles_per_lookup").value(cn.cyclesPerLookup);
        w.key("ramp").beginArray();
        for (const ConnRampPoint &rp : cn.ramp) {
            w.beginObject();
            w.key("live").value(rp.live);
            w.key("bytes_per_conn").value(rp.bytesPerConn);
            w.key("cycles_per_lookup").value(rp.cyclesPerLookup);
            w.key("avg_probe_len").value(rp.avgProbeLen);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        // DES-core throughput. The deterministic fields are always
        // present; wall-clock numbers only when a wall-aware bench
        // stamped them (same-seed exports must stay byte-identical).
        w.key("sim_core").beginObject();
        w.key("events_run").value(r.simEventsRun);
        w.key("events_scheduled").value(r.simEventsScheduled);
        w.key("sim_ticks").value(static_cast<std::uint64_t>(r.simTicks));
        if (r.simWallSeconds > 0.0) {
            const double sim_sec = secondsFromTicks(r.simTicks);
            w.key("wall_seconds").value(r.simWallSeconds);
            w.key("events_per_sec")
                .value(static_cast<double>(r.simEventsRun) /
                       r.simWallSeconds);
            if (sim_sec > 0.0)
                w.key("wall_per_sim_sec")
                    .value(r.simWallSeconds / sim_sec);
        }
        w.endObject();

        // The remaining optional blocks: present only when the run
        // populated them, so presence itself is the enabled flag.
        if (r.fleet.enabled)
            writeFleet(w, r.fleet);
        if (r.timeseries.enabled)
            writeTimeseries(w, r.timeseries);
        if (r.fleetTrace.enabled)
            writeFleetTrace(w, r.fleetTrace);

        w.key("lock_windows").beginArray();
        for (const LockWindow &lw : r.lockWindows) {
            w.beginObject();
            w.key("start").value(static_cast<std::uint64_t>(lw.start));
            w.key("end").value(static_cast<std::uint64_t>(lw.end));
            w.key("completed").value(lw.completed);
            w.key("goodput").value(lw.goodput);
            w.key("syn_retransmits").value(lw.synRetransmits);
            w.key("syn_cookies_sent").value(lw.synCookiesSent);
            w.key("syn_cookies_validated").value(lw.synCookiesValidated);
            w.key("accept_queue_rsts").value(lw.acceptQueueRsts);
            w.key("locks").beginObject();
            for (const auto &kv : lw.locks) {
                w.key(kv.first);
                writeLockClass(w, kv.second);
            }
            w.endObject();
            w.endObject();
        }
        w.endArray();

        w.key("queue_timelines").beginObject();
        for (const auto &kv : r.queueTimelines) {
            w.key(kv.first).beginArray();
            for (const QueueSample &s : kv.second) {
                w.beginArray();
                w.value(static_cast<std::uint64_t>(s.tick));
                w.value(static_cast<std::uint64_t>(s.depth));
                w.endArray();
            }
            w.endArray();
        }
        w.endObject();

        if (r.spanForensics.enabled)
            writeLatencyStages(w, r.spanForensics);

        w.key("trace").beginObject();
        w.key("window_span").value(static_cast<std::uint64_t>(
            r.windowSpan));
        w.key("untracked_cycles").value(r.phaseCycles.untracked);
        w.endObject();

        w.key("fingerprint").value(Fingerprint::hex(r.fingerprint));

        w.key("invariants").beginObject();
        w.key("checks_run").value(r.invariants.checksRun);
        w.key("violations").value(r.invariants.violationCount);
        w.key("failed").beginArray();
        for (const InvariantViolation &v : r.invariants.violations)
            w.value(v.name);
        w.endArray();
        w.endObject();

        w.endObject();
    }

    w.endArray();
    w.endObject();
    return w.str();
}

bool
BenchJsonReport::writeFile(const std::string &path) const
{
    std::string doc = str();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    bool ok = n == doc.size() && std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

} // namespace fsim
