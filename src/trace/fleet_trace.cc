#include "trace/fleet_trace.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <sstream>
#include <tuple>
#include <vector>

namespace fsim
{

FleetTraceLog::IndexSlot &
FleetTraceLog::slotFor(std::uint64_t trace_id)
{
    const std::size_t mask = index_.size() - 1;
    const std::uint32_t tag = tagOf(trace_id);
    std::size_t i = static_cast<std::size_t>(trace_id) & mask;
    while (index_[i].ref != 0 &&
           (index_[i].tag != tag ||
            records_[index_[i].ref - 1].traceId != trace_id))
        i = (i + 1) & mask;
    return index_[i];
}

void
FleetTraceLog::reserveIndex()
{
    // Keep occupancy under 3/4 so probe runs stay short.
    if ((records_.size() + 1) * 4 < index_.size() * 3)
        return;
    const std::size_t cap = index_.empty() ? 16 : index_.size() * 2;
    // Records are never erased, so the new table is rebuilt from them;
    // the old one is released first and never copied.
    index_ = {};
    index_.resize(cap);
    const std::size_t mask = cap - 1;
    for (std::size_t r = 0; r < records_.size(); ++r) {
        const std::uint64_t id = records_[r].traceId;
        std::size_t i = static_cast<std::size_t>(id) & mask;
        while (index_[i].ref != 0)
            i = (i + 1) & mask;
        index_[i] = {static_cast<std::uint32_t>(r + 1), tagOf(id)};
    }
}

FleetTrace *
FleetTraceLog::find(std::uint64_t trace_id)
{
    if (index_.empty())
        return nullptr;
    const IndexSlot &slot = slotFor(trace_id);
    return slot.ref != 0 ? &records_[slot.ref - 1] : nullptr;
}

FleetTrace &
FleetTraceLog::findOrAdd(std::uint64_t trace_id, bool &created)
{
    reserveIndex();
    IndexSlot &slot = slotFor(trace_id);
    created = slot.ref == 0;
    if (!created)
        return records_[slot.ref - 1];
    ++allocations_;
    slot = {static_cast<std::uint32_t>(records_.size() + 1),
            tagOf(trace_id)};
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

namespace
{

/** The deterministic report order: (clientStart, traceId). */
bool
startsBefore(const FleetTrace *a, const FleetTrace *b)
{
    if (a->clientStart != b->clientStart)
        return a->clientStart < b->clientStart;
    return a->traceId < b->traceId;
}

} // namespace

std::vector<const FleetTrace *>
FleetTraceLog::sortedCompleted() const
{
    std::vector<const FleetTrace *> out;
    out.reserve(clientCompleted_);
    for (const FleetTrace &tr : records_)
        if (tr.clientDone)
            out.push_back(&tr);
    std::sort(out.begin(), out.end(), startsBefore);
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

/** The percentiles forensics reports. */
constexpr double kQuantiles[] = {0.50, 0.99, 0.999};

/**
 * Where a full sort of [first, last) under @p less would put percentile
 * q of kQuantiles, at position q * (n - 1), selected in place. The
 * quantiles ascend, so each selection runs over the part of the range
 * above the previous pick and never moves an earlier pick; the range
 * from the last pick on holds the top of the order. The range must be
 * non-empty.
 */
template <typename It, typename Less = std::less<>>
std::array<It, std::size(kQuantiles)>
selectQuantiles(It first, It last, Less less = {})
{
    const double top = static_cast<double>(last - first - 1);
    std::array<It, std::size(kQuantiles)> at{};
    It from = first;
    for (std::size_t k = 0; k < at.size(); ++k) {
        at[k] = first + static_cast<std::ptrdiff_t>(kQuantiles[k] * top);
        if (at[k] < from)
            continue;   // the same position as the previous pick
        std::nth_element(from, at[k], last, less);
        from = at[k] + 1;
    }
    return at;
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

    // One pointer per completed-ok trace, in the (clientStart, traceId)
    // order sortedCompleted() gives, so shares sum in that order.
    std::vector<const FleetTrace *> done;
    done.reserve(log.clientCompleted());
    for (const FleetTrace &tr : log.records())
        if (tr.clientDone && tr.ok)
            done.push_back(&tr);
    f.tracesCompleted = done.size();
    if (done.empty())
        return f;
    std::sort(done.begin(), done.end(), startsBefore);

    std::array<double, HopSlices::kNumHops> hopSum{};
    double e2eSum = 0.0;
    for (const FleetTrace *tr : done) {
        const HopSlices s = sliceTrace(*tr, forward_delay);
        for (int h = 0; h < HopSlices::kNumHops; ++h)
            hopSum[h] += static_cast<double>(s.t[h]);
        e2eSum += static_cast<double>(tr->e2eLatency());
    }

    // Per-hop distributions, one hop at a time through one buffer.
    std::vector<Tick> slice(done.size());
    for (int h = 0; h < HopSlices::kNumHops; ++h) {
        for (std::size_t i = 0; i < done.size(); ++i)
            slice[i] = sliceTrace(*done[i], forward_delay).t[h];
        const auto at = selectQuantiles(slice.begin(), slice.end());
        FleetHopStat st;
        st.hop = kHopNames[h];
        st.p50 = *at[0];
        st.p99 = *at[1];
        st.p999 = *at[2];
        st.max = *std::max_element(at[2], slice.end());
        st.share = e2eSum > 0.0 ? hopSum[h] / e2eSum : 0.0;
        f.hops.push_back(st);
    }

    // Exemplars: rank by end-to-end latency, ties in (clientStart,
    // traceId) order. Trace ids are unique, so that order is total and
    // selecting in place picks what a stable sort by latency would.
    const auto exemplar = selectQuantiles(
        done.begin(), done.end(),
        [](const FleetTrace *a, const FleetTrace *b) {
            const Tick la = a->e2eLatency();
            const Tick lb = b->e2eLatency();
            return la != lb ? la < lb : startsBefore(a, b);
        });
    f.e2eP50 = (*exemplar[0])->e2eLatency();
    f.e2eP99 = (*exemplar[1])->e2eLatency();
    f.e2eP999 = (*exemplar[2])->e2eLatency();

    auto dominant = [&](const FleetTrace *tr) {
        const HopSlices s = sliceTrace(*tr, forward_delay);
        int best = 0;
        for (int h = 1; h < HopSlices::kNumHops; ++h)
            if (s.t[h] > s.t[best])
                best = h;
        return std::string(kHopNames[best]);
    };
    f.dominantP50 = dominant(*exemplar[0]);
    f.dominantP99 = dominant(*exemplar[1]);
    f.dominantP999 = dominant(*exemplar[2]);
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
