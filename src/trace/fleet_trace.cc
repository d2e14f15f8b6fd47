#include "trace/fleet_trace.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <tuple>

namespace fsim
{

FleetTrace *
FleetTraceLog::find(std::uint64_t trace_id)
{
    const std::uint32_t *idx = index_.find(trace_id);
    return idx ? &records_[*idx] : nullptr;
}

FleetTrace &
FleetTraceLog::findOrAdd(std::uint64_t trace_id, bool &created)
{
    const auto ins = index_.insert(
        trace_id, static_cast<std::uint32_t>(records_.size()));
    created = ins.second;
    if (!created)
        return records_[*ins.first];
    ++allocations_;
    FleetTrace &tr = records_.push_back(FleetTrace{});
    tr.traceId = trace_id;
    return tr;
}

void
FleetTraceLog::clientStart(std::uint64_t trace_id, Tick t)
{
    if (!enabled_ || trace_id == 0)
        return;
    bool created;
    FleetTrace &tr = findOrAdd(trace_id, created);
    if (!created && tr.clientStart != 0) {
        ++duplicates_;
        return;
    }
    tr.clientStart = t;
    ++clientStarts_;
}

void
FleetTraceLog::clientEnd(std::uint64_t trace_id, Tick t, bool ok)
{
    if (!enabled_ || trace_id == 0)
        return;
    FleetTrace *tr = find(trace_id);
    if (!tr || tr->clientDone)
        return;
    tr->clientEnd = t;
    tr->clientDone = true;
    tr->ok = ok;
    ++clientCompleted_;
}

void
FleetTraceLog::lbIngress(std::uint64_t trace_id, Tick t, int lb, int slot)
{
    if (!enabled_ || trace_id == 0)
        return;
    // A new record here means the LB saw the SYN before the client
    // record landed (cannot happen with in-order recording, but keep
    // the record coherent).
    bool created;
    FleetTrace &tr = findOrAdd(trace_id, created);
    if (tr.lbFlows == 0) {
        tr.lbId = lb;
        tr.lbIngress = t;
        tr.serverSlot = slot;
    }
    ++tr.lbFlows;
}

void
FleetTraceLog::lbForward(std::uint64_t trace_id)
{
    if (!enabled_ || trace_id == 0)
        return;
    FleetTrace *tr = find(trace_id);
    if (tr)
        ++tr->lbForwards;
}

void
FleetTraceLog::stitchMachineSpan(const ConnSpanTrace &span)
{
    if (!enabled_ || span.traceId == 0)
        return;
    FleetTrace *tr = find(span.traceId);
    if (!tr)
        return;
    const Tick service = span.serviceLatency();
    Tick exec = 0;
    for (const ConnSpan &sp : span.spans)
        if (connStageKind(sp.stage) == ConnStageKind::kExec)
            exec += sp.end - sp.begin;
    // Failover can leave a reaped half-open TCB on the old machine plus
    // the span that actually served: rank candidates by the total order
    // stitchMachineSpan documents (~open: the earlier open ranks higher).
    const auto rank = [](bool orderly, Tick svc, Tick open, Tick close,
                         Tick ex) {
        return std::make_tuple(orderly, svc, ~open, close, ex);
    };
    if (tr->stitched) {
        if (rank(span.closed, service, span.openTick, span.closeTick,
                 exec) <= rank(tr->serverOrderly, tr->serverService,
                               tr->serverOpen, tr->serverClose,
                               tr->serverExec))
            return;
    } else {
        ++stitched_;
    }
    tr->stitched = true;
    tr->serverOrderly = span.closed;
    tr->serverOpen = span.openTick;
    tr->serverClose = span.closeTick;
    tr->serverService = service;
    tr->serverExec = exec;
}

std::uint64_t
FleetTraceLog::orphans() const
{
    std::uint64_t n = 0;
    for (const FleetTrace &tr : records_)
        if (tr.clientDone && tr.ok && tr.lbFlows == 0)
            ++n;
    return n;
}

std::vector<const FleetTrace *>
FleetTraceLog::sortedCompleted() const
{
    std::vector<const FleetTrace *> out;
    out.reserve(records_.size());
    for (const FleetTrace &tr : records_)
        if (tr.clientDone)
            out.push_back(&tr);
    std::sort(out.begin(), out.end(),
              [](const FleetTrace *a, const FleetTrace *b) {
                  if (a->clientStart != b->clientStart)
                      return a->clientStart < b->clientStart;
                  return a->traceId < b->traceId;
              });
    return out;
}

namespace
{

/** Hop attribution of one completed trace (all ticks, lossless:
 *  slices sum to the end-to-end latency by construction — "wire"
 *  absorbs the remainder). */
struct HopSlices
{
    static constexpr int kNumHops = 5;
    // Index order matches FleetTraceForensics::hops.
    std::array<Tick, kNumHops> t{};
};

constexpr const char *kHopNames[HopSlices::kNumHops] = {
    "wire", "lb-ingress", "lb-nat", "server-exec", "backend-rtt",
};

HopSlices
sliceTrace(const FleetTrace &tr, Tick forward_delay)
{
    HopSlices s;
    const Tick e2e = tr.e2eLatency();
    const Tick ingress = Tick{tr.lbFlows} * forward_delay;
    const Tick nat = tr.lbForwards > tr.lbFlows
        ? Tick{tr.lbForwards - tr.lbFlows} * forward_delay
        : 0;
    const Tick exec = std::min(tr.serverExec, tr.serverService);
    const Tick rtt = tr.serverService - exec;
    Tick accounted = ingress + nat + exec + rtt;
    s.t[1] = ingress;
    s.t[2] = nat;
    s.t[3] = exec;
    s.t[4] = rtt;
    s.t[0] = e2e > accounted ? e2e - accounted : 0; // wire + residual
    return s;
}

Tick
pct(std::vector<Tick> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::size_t idx =
        static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

} // namespace

FleetTraceForensics
buildFleetTraceForensics(const FleetTraceLog &log, Tick forward_delay)
{
    FleetTraceForensics f;
    f.enabled = log.enabled();
    f.duplicates = log.duplicates();
    f.orphans = log.orphans();
    f.stitched = log.machineSpansStitched();
    if (!f.enabled)
        return f;

    std::vector<const FleetTrace *> done;
    for (const FleetTrace *tr : log.sortedCompleted())
        if (tr->ok)
            done.push_back(tr);
    f.tracesCompleted = done.size();
    if (done.empty())
        return f;

    // Rank by end-to-end latency for percentiles + exemplar picks.
    std::vector<const FleetTrace *> byLat = done;
    std::stable_sort(byLat.begin(), byLat.end(),
                     [](const FleetTrace *a, const FleetTrace *b) {
                         return a->e2eLatency() < b->e2eLatency();
                     });
    auto rankAt = [&](double q) {
        std::size_t idx = static_cast<std::size_t>(
            q * static_cast<double>(byLat.size() - 1));
        return byLat[idx];
    };
    f.e2eP50 = rankAt(0.50)->e2eLatency();
    f.e2eP99 = rankAt(0.99)->e2eLatency();
    f.e2eP999 = rankAt(0.999)->e2eLatency();

    std::array<std::vector<Tick>, HopSlices::kNumHops> perHop;
    for (auto &v : perHop)
        v.reserve(done.size());
    std::array<double, HopSlices::kNumHops> hopSum{};
    double e2eSum = 0.0;
    for (const FleetTrace *tr : done) {
        const HopSlices s = sliceTrace(*tr, forward_delay);
        for (int h = 0; h < HopSlices::kNumHops; ++h) {
            perHop[h].push_back(s.t[h]);
            hopSum[h] += static_cast<double>(s.t[h]);
        }
        e2eSum += static_cast<double>(tr->e2eLatency());
    }
    for (int h = 0; h < HopSlices::kNumHops; ++h) {
        std::sort(perHop[h].begin(), perHop[h].end());
        FleetHopStat st;
        st.hop = kHopNames[h];
        st.p50 = pct(perHop[h], 0.50);
        st.p99 = pct(perHop[h], 0.99);
        st.p999 = pct(perHop[h], 0.999);
        st.max = perHop[h].back();
        st.share = e2eSum > 0.0 ? hopSum[h] / e2eSum : 0.0;
        f.hops.push_back(st);
    }

    auto dominant = [&](const FleetTrace *tr) {
        const HopSlices s = sliceTrace(*tr, forward_delay);
        int best = 0;
        for (int h = 1; h < HopSlices::kNumHops; ++h)
            if (s.t[h] > s.t[best])
                best = h;
        return std::string(kHopNames[best]);
    };
    f.dominantP50 = dominant(rankAt(0.50));
    f.dominantP99 = dominant(rankAt(0.99));
    f.dominantP999 = dominant(rankAt(0.999));
    return f;
}

std::string
renderFleetTraceReport(const FleetTraceForensics &f, const std::string &label)
{
    std::ostringstream os;
    os << "=== fleet trace forensics: " << label << " ===\n";
    if (!f.enabled) {
        os << "  (tracing disabled)\n";
        return os.str();
    }
    os << "  traces completed " << f.tracesCompleted
       << "  stitched " << f.stitched
       << "  orphans " << f.orphans
       << "  duplicates " << f.duplicates << "\n";
    os << "  e2e p50 " << f.e2eP50 << "  p99 " << f.e2eP99
       << "  p999 " << f.e2eP999 << " ticks\n";
    os << "  critical path: p50=" << f.dominantP50
       << " p99=" << f.dominantP99
       << " p999=" << f.dominantP999 << "\n";
    for (const FleetHopStat &h : f.hops) {
        os << "    " << h.hop;
        for (std::size_t pad = h.hop.size(); pad < 12; ++pad)
            os << ' ';
        os << " p50 " << h.p50 << "  p99 " << h.p99
           << "  p999 " << h.p999 << "  max " << h.max
           << "  share " << static_cast<int>(h.share * 100.0 + 0.5)
           << "%\n";
    }
    return os.str();
}

} // namespace fsim
