#include "trace/perfetto_export.hh"

#include <algorithm>

#include "trace/json_writer.hh"

namespace fsim
{

namespace
{

/** One pre-serialized trace event. */
struct OutEvent
{
    Tick ts = 0;
    std::uint64_t connId = 0;
    std::uint64_t id = 0; //!< async / flow id
    std::uint32_t aux = 0;
    int tid = 0;
    char ph = 'B';
    const char *name = "";
    const char *cat = "conn";
    bool bindEnclosing = false; //!< flow "f": bp:"e"
};

/** A span tagged with its owning connection, for per-core sorting. */
struct CoreSpan
{
    const ConnSpan *span = nullptr;
    std::uint64_t connId = 0;
    std::uint64_t seq = 0;
};

void
writeEvent(JsonWriter &w, const OutEvent &ev)
{
    w.beginObject();
    w.key("name").value(ev.name);
    w.key("cat").value(ev.cat);
    w.key("ph").value(std::string(1, ev.ph));
    w.key("ts").value(static_cast<std::uint64_t>(ev.ts));
    w.key("pid").value(0);
    w.key("tid").value(ev.tid);
    if (ev.ph == 'b' || ev.ph == 'e' || ev.ph == 's' || ev.ph == 'f')
        w.key("id").value(ev.id);
    if (ev.bindEnclosing)
        w.key("bp").value("e");
    if (ev.ph == 'B' || ev.ph == 'b') {
        w.key("args").beginObject();
        w.key("conn").value(ev.connId);
        if (ev.aux)
            w.key("aux").value(static_cast<std::uint64_t>(ev.aux));
        w.endObject();
    }
    w.endObject();
}

} // namespace

bool
writePerfettoTrace(const std::string &path,
                   const std::vector<ConnSpanTrace> &traces,
                   const PerfettoMeta &meta, PerfettoStats *stats,
                   std::size_t max_traces)
{
    PerfettoStats st;
    const std::size_t n = std::min(traces.size(), max_traces);
    st.truncated = n < traces.size();
    st.tracesExported = n;

    // Bucket exec/sub spans per core; waits go straight to the side list.
    const int n_cores = std::max(meta.cores, 1);
    std::vector<std::vector<CoreSpan>> per_core(n_cores);
    std::vector<OutEvent> side; // async waits + flows, any order
    std::uint64_t flow_id = 0;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ConnSpanTrace &tr = traces[i];
        const ConnSpan *prev_exec = nullptr;
        for (const ConnSpan &sp : tr.spans) {
            ++seq;
            const int core =
                sp.core >= 0 && sp.core < n_cores ? sp.core : 0;
            if (connStageKind(sp.stage) == ConnStageKind::kWait) {
                OutEvent b;
                b.ts = sp.begin;
                b.connId = tr.connId;
                b.id = tr.connId;
                b.aux = sp.aux;
                b.tid = core;
                b.ph = 'b';
                b.name = connStageName(sp.stage);
                b.cat = "wait";
                OutEvent e = b;
                e.ts = sp.end;
                e.ph = 'e';
                side.push_back(b);
                side.push_back(e);
                st.waitEvents += 2;
                continue;
            }
            per_core[core].push_back({&sp, tr.connId, seq});
            if (connStageKind(sp.stage) == ConnStageKind::kExec) {
                // Spans are recorded in event order, so consecutive exec
                // spans on different cores are a real cross-core handoff.
                if (prev_exec && prev_exec->core != sp.core) {
                    OutEvent s;
                    s.ts = prev_exec->end;
                    s.connId = tr.connId;
                    s.id = ++flow_id;
                    s.tid = prev_exec->core >= 0 &&
                                    prev_exec->core < n_cores
                                ? prev_exec->core
                                : 0;
                    s.ph = 's';
                    s.name = "conn";
                    s.cat = "conn-flow";
                    OutEvent f = s;
                    f.ts = sp.begin >= prev_exec->end ? sp.begin
                                                      : prev_exec->end;
                    f.tid = core;
                    f.ph = 'f';
                    f.bindEnclosing = true;
                    side.push_back(s);
                    side.push_back(f);
                    ++st.flowPairs;
                }
                prev_exec = &sp;
            }
        }
    }

    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();

    for (int c = 0; c < n_cores; ++c) {
        w.beginObject();
        w.key("name").value("thread_name");
        w.key("ph").value("M");
        w.key("pid").value(0);
        w.key("tid").value(c);
        w.key("args").beginObject();
        w.key("name").value("core " + std::to_string(c));
        w.endObject();
        w.endObject();
    }

    // Duration events per core: sort (begin asc, end desc) so parents
    // precede children, then a stack walk interleaves B/E in
    // non-decreasing ts order with child ends clamped to the parent.
    for (int c = 0; c < n_cores; ++c) {
        std::vector<CoreSpan> &spans = per_core[c];
        std::sort(spans.begin(), spans.end(),
                  [](const CoreSpan &a, const CoreSpan &b) {
                      if (a.span->begin != b.span->begin)
                          return a.span->begin < b.span->begin;
                      if (a.span->end != b.span->end)
                          return a.span->end > b.span->end;
                      return a.seq < b.seq;
                  });
        std::vector<OutEvent> open; // emitted B events awaiting E
        const auto emit_end = [&](const OutEvent &b, Tick ts) {
            OutEvent e = b;
            e.ts = ts;
            e.ph = 'E';
            writeEvent(w, e);
        };
        std::vector<Tick> ends;
        for (const CoreSpan &cs : spans) {
            Tick begin = cs.span->begin;
            Tick end = cs.span->end;
            while (!ends.empty() && ends.back() <= begin) {
                emit_end(open.back(), ends.back());
                ends.pop_back();
                open.pop_back();
            }
            if (!ends.empty()) {
                if (begin > ends.back())
                    begin = ends.back();
                if (end > ends.back())
                    end = ends.back();
            }
            OutEvent b;
            b.ts = begin;
            b.connId = cs.connId;
            b.aux = cs.span->aux;
            b.tid = c;
            b.ph = 'B';
            b.name = connStageName(cs.span->stage);
            b.cat = connStageKind(cs.span->stage) == ConnStageKind::kSub
                        ? "sub"
                        : "conn";
            writeEvent(w, b);
            st.durationEvents += 2;
            open.push_back(b);
            ends.push_back(end);
        }
        while (!ends.empty()) {
            emit_end(open.back(), ends.back());
            ends.pop_back();
            open.pop_back();
        }
    }

    for (const OutEvent &ev : side)
        writeEvent(w, ev);

    w.endArray();
    w.key("otherData").beginObject();
    w.key("bench").value(meta.bench);
    w.key("label").value(meta.label);
    w.key("cores").value(meta.cores);
    w.key("rfd").value(meta.rfd);
    w.key("ts_unit").value("ticks");
    w.key("traces_exported").value(st.tracesExported);
    w.key("cross_core_flows").value(st.flowPairs);
    w.key("truncated").value(st.truncated);
    w.endObject();
    w.endObject();

    if (stats)
        *stats = st;
    return w.writeFile(path);
}

namespace
{

/** Fleet track plan: distinct pids so Perfetto renders one process
 *  lane per simulated box. Machines stay below 74 (slots <= 64), so
 *  the ranges never collide. */
constexpr int kClientPid = 1;
constexpr int kMachinePidBase = 10;
constexpr int kLbPidBase = 100;

void
writeProcessName(JsonWriter &w, int pid, const std::string &name)
{
    w.beginObject();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(0);
    w.key("args").beginObject();
    w.key("name").value(name);
    w.endObject();
    w.endObject();
}

/** Async hop span (ph b/e) or flow endpoint (s/f) on a fleet track. */
void
writeFleetEvent(JsonWriter &w, char ph, Tick ts, int pid,
                std::uint64_t id, const char *name, const char *cat)
{
    w.beginObject();
    w.key("name").value(name);
    w.key("cat").value(cat);
    w.key("ph").value(std::string(1, ph));
    w.key("ts").value(static_cast<std::uint64_t>(ts));
    w.key("pid").value(pid);
    w.key("tid").value(0);
    w.key("id").value(id);
    w.endObject();
}

} // namespace

bool
writeFleetPerfettoTrace(const std::string &path, const FleetTraceLog &log,
                        const FleetPerfettoMeta &meta, PerfettoStats *stats,
                        std::size_t max_traces)
{
    PerfettoStats st;
    const std::vector<const FleetTrace *> done = log.sortedCompleted();
    const std::size_t n = std::min(done.size(), max_traces);
    st.truncated = n < done.size();
    st.tracesExported = n;

    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();

    writeProcessName(w, kClientPid, "clients");
    for (int b = 0; b < std::max(meta.balancers, 1); ++b)
        writeProcessName(w, kLbPidBase + b, "lb " + std::to_string(b));
    for (int m = 0; m < std::max(meta.machines, 1); ++m)
        writeProcessName(w, kMachinePidBase + m,
                         "machine " + std::to_string(m));

    for (std::size_t i = 0; i < n; ++i) {
        const FleetTrace &tr = *done[i];
        const Tick end = std::max(tr.clientEnd(), tr.clientStart());
        writeFleetEvent(w, 'b', tr.clientStart(), kClientPid,
                        tr.traceId(), "request", "fleet");
        writeFleetEvent(w, 'e', end, kClientPid, tr.traceId(), "request",
                        "fleet");
        st.waitEvents += 2;

        const bool haveLb = tr.lbId() >= 0;     // a flow was created
        if (haveLb) {
            const int pid = kLbPidBase + tr.lbId();
            const Tick lb_end = std::max(end, tr.lbIngress());
            writeFleetEvent(w, 'b', tr.lbIngress(), pid, tr.traceId(),
                            "lb", "fleet");
            writeFleetEvent(w, 'e', lb_end, pid, tr.traceId(), "lb",
                            "fleet");
            st.waitEvents += 2;
        }

        if (tr.stitched() && tr.serverSlot() >= 0) {
            const int pid = kMachinePidBase + tr.serverSlot();
            const Tick close = std::max(tr.serverClose(), tr.serverOpen());
            writeFleetEvent(w, 'b', tr.serverOpen(), pid, tr.traceId(),
                            "server", "fleet");
            writeFleetEvent(w, 'e', close, pid, tr.traceId(), "server",
                            "fleet");
            st.waitEvents += 2;
            // Cross-machine arrow: balancer admission -> server TCB
            // mint. Causality orders the mint after the ingress, so
            // the f endpoint never precedes its s.
            if (haveLb && tr.serverOpen() >= tr.lbIngress()) {
                writeFleetEvent(w, 's', tr.lbIngress(),
                                kLbPidBase + tr.lbId(), tr.traceId(),
                                "steer", "fleet-flow");
                writeFleetEvent(w, 'f', tr.serverOpen(), pid,
                                tr.traceId(), "steer", "fleet-flow");
                ++st.flowPairs;
            }
        }
    }

    w.endArray();
    w.key("otherData").beginObject();
    w.key("bench").value(meta.bench);
    w.key("label").value(meta.label);
    w.key("machines").value(meta.machines);
    w.key("balancers").value(meta.balancers);
    w.key("rfd").value(false);
    w.key("ts_unit").value("ticks");
    w.key("traces_exported").value(st.tracesExported);
    w.key("cross_core_flows").value(st.flowPairs);
    w.key("truncated").value(st.truncated);
    w.endObject();
    w.endObject();

    if (stats)
        *stats = st;
    return w.writeFile(path);
}

} // namespace fsim
