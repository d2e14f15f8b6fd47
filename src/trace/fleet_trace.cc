#include "trace/fleet_trace.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <tuple>
#include <vector>

#include "sim/logging.hh"
#include "sim/order_stat.hh"

namespace fsim
{

FleetTrace::FleetTrace(std::uint64_t trace_id, Tick t)
    : traceId_(trace_id)
{
    fsim_assert(t <= kMaxClientStart &&
                "fleet trace tick past 2^48 (~31 sim-hours)");
    base_ = t;
}

void
FleetTrace::setInstant(Wide w, Tick t)
{
    Tick raw = 0;
    if (t != 0) {
        raw = t - Tick{base_} + kBias;
        fsim_assert(raw != 0 && raw < 2 * kBias &&
                    "fleet trace instant more than 2^39 ticks (~220 "
                    "sim-s) from its clientStart");
    }
    setWide(w, raw);
}

void
FleetTrace::setClientStart(Tick t)
{
    fsim_assert(t <= kMaxClientStart &&
                "fleet trace tick past 2^48 (~31 sim-hours)");
    std::array<Tick, kNumInstants> at;
    for (int i = 0; i < kNumInstants; ++i)
        at[i] = instant(static_cast<Wide>(i));
    base_ = t;
    for (int i = 0; i < kNumInstants; ++i)
        setInstant(static_cast<Wide>(i), at[i]);
    set(kStarted, true);
}

void
FleetTrace::setClientEnd(Tick t, bool ok)
{
    setInstant(kClientEnd, t);
    set(kClientDone, true);
    set(kOk, ok);
}

void
FleetTrace::addLbFlow(Tick t, int lb, int slot)
{
    fsim_assert(lbFlows_ < kMaxLbFlows &&
                "fleet trace: more than 255 balancer flows");
    if (lbFlows_ == 0) {
        fsim_assert(lb >= 0 && lb <= kMaxLbId && slot >= 0 &&
                    slot <= kMaxServerSlot &&
                    "fleet trace: balancer id or machine slot out of range");
        lbId_ = static_cast<std::uint8_t>(lb);
        serverSlot_ = static_cast<std::uint8_t>(slot);
        setInstant(kLbIngress, t);
    }
    ++lbFlows_;
}

void
FleetTrace::addLbForward()
{
    fsim_assert(lbForwards_ < kMaxLbForwards &&
                "fleet trace: more than 65535 NAT forwards");
    ++lbForwards_;
}

void
FleetTrace::setServerSpan(bool orderly, Tick open, Tick close,
                          Tick service, Tick exec)
{
    fsim_assert(service <= kMaxServerService &&
                "fleet trace service latency past 2^40 ticks");
    fsim_assert(exec <= kMaxServerExec &&
                "fleet trace exec time past 2^32 ticks (~1.7 sim-s)");
    set(kStitched, true);
    set(kServerOrderly, orderly);
    setInstant(kServerOpen, open);
    setInstant(kServerClose, close);
    setWide(kServerService, service);
    serverExec_ = static_cast<std::uint32_t>(exec);
}

FleetTraceLog::IndexSlot &
FleetTraceLog::slotFor(std::uint64_t trace_id)
{
    const std::size_t mask = index_.size() - 1;
    const std::uint32_t tag = tagOf(trace_id);
    std::size_t i = static_cast<std::size_t>(trace_id) & mask;
    while (index_[i].ref != 0 &&
           (index_[i].tag != tag ||
            records_[index_[i].ref - 1].traceId() != trace_id))
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
        const std::uint64_t id = records_[r].traceId();
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
FleetTraceLog::findOrAdd(std::uint64_t trace_id, Tick t, bool &created)
{
    reserveIndex();
    IndexSlot &slot = slotFor(trace_id);
    created = slot.ref == 0;
    if (!created)
        return records_[slot.ref - 1];
    ++allocations_;
    slot = {static_cast<std::uint32_t>(records_.size() + 1),
            tagOf(trace_id)};
    return records_.push_back(FleetTrace(trace_id, t));
}

void
FleetTraceLog::clientStart(std::uint64_t trace_id, Tick t)
{
    if (!enabled_ || trace_id == 0)
        return;
    bool created;
    FleetTrace &tr = findOrAdd(trace_id, t, created);
    if (!created && tr.clientStart() != 0) {
        ++duplicates_;
        return;
    }
    tr.setClientStart(t);
    ++clientStarts_;
}

void
FleetTraceLog::clientEnd(std::uint64_t trace_id, Tick t, bool ok)
{
    if (!enabled_ || trace_id == 0)
        return;
    FleetTrace *tr = find(trace_id);
    if (!tr || tr->clientDone())
        return;
    tr->setClientEnd(t, ok);
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
    findOrAdd(trace_id, t, created).addLbFlow(t, lb, slot);
}

void
FleetTraceLog::lbForward(std::uint64_t trace_id)
{
    if (!enabled_ || trace_id == 0)
        return;
    FleetTrace *tr = find(trace_id);
    if (tr)
        tr->addLbForward();
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
    if (tr->stitched()) {
        if (rank(span.closed, service, span.openTick, span.closeTick,
                 exec) <= rank(tr->serverOrderly(), tr->serverService(),
                               tr->serverOpen(), tr->serverClose(),
                               tr->serverExec()))
            return;
    } else {
        ++stitched_;
    }
    tr->setServerSpan(span.closed, span.openTick, span.closeTick, service,
                      exec);
}

std::uint64_t
FleetTraceLog::orphans() const
{
    std::uint64_t n = 0;
    for (const FleetTrace &tr : records_)
        if (tr.clientDone() && tr.ok() && tr.lbFlows() == 0)
            ++n;
    return n;
}

namespace
{

/** The deterministic report order: (clientStart, traceId). */
bool
startsBefore(const FleetTrace *a, const FleetTrace *b)
{
    if (a->clientStart() != b->clientStart())
        return a->clientStart() < b->clientStart();
    return a->traceId() < b->traceId();
}

} // namespace

std::vector<const FleetTrace *>
FleetTraceLog::sortedCompleted() const
{
    std::vector<const FleetTrace *> out;
    out.reserve(clientCompleted_);
    for (const FleetTrace &tr : records_)
        if (tr.clientDone())
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
    const Tick ingress = Tick{tr.lbFlows()} * forward_delay;
    const Tick nat = tr.lbForwards() > tr.lbFlows()
        ? Tick{tr.lbForwards() - tr.lbFlows()} * forward_delay
        : 0;
    const Tick exec = std::min(tr.serverExec(), tr.serverService());
    const Tick rtt = tr.serverService() - exec;
    Tick accounted = ingress + nat + exec + rtt;
    s.t[1] = ingress;
    s.t[2] = nat;
    s.t[3] = exec;
    s.t[4] = rtt;
    s.t[0] = e2e > accounted ? e2e - accounted : 0; // wire + residual
    return s;
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

    // Every statistic below is a pass over the completed-ok records in
    // place; nothing per trace is copied. The sums are exact integers,
    // so they do not depend on the order the records are read in.
    const auto forDone = [&log](auto &&fn) {
        for (const FleetTrace &tr : log.records())
            if (tr.clientDone() && tr.ok())
                fn(tr);
    };
    std::uint64_t n = 0;
    std::array<Tick, HopSlices::kNumHops> hopSum{};
    Tick e2eSum = 0;
    forDone([&](const FleetTrace &tr) {
        ++n;
        const HopSlices s = sliceTrace(tr, forward_delay);
        for (int h = 0; h < HopSlices::kNumHops; ++h)
            hopSum[h] += s.t[h];
        e2eSum += tr.e2eLatency();
    });
    f.tracesCompleted = n;
    if (n == 0)
        return f;
    // Percentile q sits at index q * (n - 1) of the sorted values; the
    // hops also select their maximum, index n - 1.
    const auto rankOf = [n](double q) {
        return static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    };
    const std::array<std::uint64_t, 3> ranks = {
        rankOf(0.50), rankOf(0.99), rankOf(0.999)};
    const std::array<std::uint64_t, 4> hopRanks = {ranks[0], ranks[1],
                                                   ranks[2], n - 1};

    for (int h = 0; h < HopSlices::kNumHops; ++h) {
        const auto hop = [&](auto &&sink) {
            forDone([&](const FleetTrace &tr) {
                sink(sliceTrace(tr, forward_delay).t[h]);
            });
        };
        const auto at = selectRanks(hop, hopRanks);
        FleetHopStat st;
        st.hop = kHopNames[h];
        st.p50 = at[0].value;
        st.p99 = at[1].value;
        st.p999 = at[2].value;
        st.max = at[3].value;
        st.share = e2eSum > 0 ? static_cast<double>(hopSum[h]) /
                                    static_cast<double>(e2eSum)
                              : 0.0;
        f.hops.push_back(st);
    }

    // Exemplars rank by end-to-end latency, ties in (clientStart,
    // traceId) order: select the latency, then the start among the
    // traces of that latency, then the id among those. Ids are unique,
    // so the last pick names one trace.
    const auto lats = selectRanks(
        [&](auto &&sink) {
            forDone([&](const FleetTrace &tr) { sink(tr.e2eLatency()); });
        },
        ranks);
    const auto exemplar = [&](std::size_t k) -> const FleetTrace & {
        const RankedValue lat = lats[k];
        std::uint64_t rank = ranks[k] - lat.below;
        const RankedValue start = selectRank(
            [&](auto &&sink) {
                forDone([&](const FleetTrace &tr) {
                    if (tr.e2eLatency() == lat.value)
                        sink(tr.clientStart());
                });
            },
            rank);
        rank -= start.below;
        const RankedValue id = selectRank(
            [&](auto &&sink) {
                forDone([&](const FleetTrace &tr) {
                    if (tr.e2eLatency() == lat.value &&
                        tr.clientStart() == start.value)
                        sink(tr.traceId());
                });
            },
            rank);
        const FleetTrace *pick = nullptr;
        forDone([&](const FleetTrace &tr) {
            if (tr.traceId() == id.value)
                pick = &tr;
        });
        return *pick;
    };
    const auto dominant = [&](const FleetTrace &tr) {
        const HopSlices s = sliceTrace(tr, forward_delay);
        int best = 0;
        for (int h = 1; h < HopSlices::kNumHops; ++h)
            if (s.t[h] > s.t[best])
                best = h;
        return std::string(kHopNames[best]);
    };
    const FleetTrace &p50 = exemplar(0);
    const FleetTrace &p99 = exemplar(1);
    const FleetTrace &p999 = exemplar(2);
    f.e2eP50 = p50.e2eLatency();
    f.e2eP99 = p99.e2eLatency();
    f.e2eP999 = p999.e2eLatency();
    f.dominantP50 = dominant(p50);
    f.dominantP99 = dominant(p99);
    f.dominantP999 = dominant(p999);
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
