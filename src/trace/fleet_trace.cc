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

FleetTrace::FleetTrace(Tick t)
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

std::uint64_t
FleetTraceLog::traceIdOf(std::uint64_t seq)
{
    std::uint64_t x = seq + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // The one sequence number minted as 0 is ~7e18: never reached.
    fsim_assert(x != 0 && "traceIdOf: sequence number maps to id 0");
    return x;
}

std::uint64_t
FleetTraceLog::seqOf(std::uint64_t trace_id)
{
    // traceIdOf backwards: each x ^= x >> k is undone by x ^= x >> k,
    // x >> 2k, ...; each odd multiplier by its inverse mod 2^64.
    std::uint64_t x = trace_id;
    x ^= (x >> 31) ^ (x >> 62);
    x *= 0x319642b2d24d8ec3ULL;
    x ^= (x >> 27) ^ (x >> 54);
    x *= 0x96de1b173f119089ULL;
    x ^= (x >> 30) ^ (x >> 60);
    return x - 0x9e3779b97f4a7c15ULL;
}

FleetTrace *
FleetTraceLog::find(std::uint64_t trace_id)
{
    // seqOf is a bijection, so a sequence number in range names the
    // record of exactly this id.
    const std::uint64_t s = seqOf(trace_id);
    return s == 0 || s > records_.size() ? nullptr : &records_[s - 1];
}

FleetTrace &
FleetTraceLog::findOrAdd(std::uint64_t trace_id, Tick t, bool &created)
{
    created = seqOf(trace_id) == records_.size() + 1;
    if (created)
        return records_.push_back(FleetTrace(t));
    FleetTrace *tr = find(trace_id);
    fsim_assert(tr && "fleet trace id is past the next traceIdOf(seq): "
                      "records are stored by sequence number");
    return *tr;
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
    const ConnSpanFold fold(span);
    // Failover can leave a reaped half-open TCB on the old machine plus
    // the span that actually served: rank candidates by the total order
    // stitchMachineSpan documents (~open: the earlier open ranks higher).
    const auto rank = [](bool orderly, Tick svc, Tick open, Tick close,
                         Tick ex) {
        return std::make_tuple(orderly, svc, ~open, close, ex);
    };
    if (tr->stitched()) {
        if (rank(span.closed, fold.latency, span.openTick,
                 span.closeTick, fold.exec) <=
            rank(tr->serverOrderly(), tr->serverService(),
                 tr->serverOpen(), tr->serverClose(), tr->serverExec()))
            return;
    } else {
        ++stitched_;
    }
    tr->setServerSpan(span.closed, span.openTick, span.closeTick,
                      fold.latency, fold.exec);
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

std::uint64_t
FleetTraceLog::unstitchedOk() const
{
    std::uint64_t n = 0;
    for (const FleetTrace &tr : records_)
        if (tr.clientDone() && tr.ok() && !tr.stitched())
            ++n;
    return n;
}

std::vector<std::size_t>
FleetTraceLog::sortedCompleted() const
{
    std::vector<std::size_t> out;
    out.reserve(clientCompleted_);
    for (std::size_t i = 0; i < records_.size(); ++i)
        if (records_[i].clientDone())
            out.push_back(i);
    // The deterministic report order: (clientStart, traceId).
    std::sort(out.begin(), out.end(), [this](std::size_t a, std::size_t b) {
        const Tick sa = records_[a].clientStart();
        const Tick sb = records_[b].clientStart();
        return sa != sb ? sa < sb : traceIdOf(a + 1) < traceIdOf(b + 1);
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
    // so they do not depend on the order the records are read in. pos
    // is the position of the record being visited: its id's source.
    const ChunkedVector<FleetTrace> &records = log.records();
    std::size_t pos = 0;
    const auto forDone = [&records, &pos](auto &&fn) {
        for (pos = 0; pos < records.size(); ++pos)
            if (records[pos].clientDone() && records[pos].ok())
                fn(records[pos]);
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
    // traceId) order. Ids are unique, so the keys name one trace.
    // selectRecords keys a record while forDone visits it, so pos is
    // that record's position.
    const auto picks = selectRecords<FleetTrace>(
        forDone,
        [&pos](const FleetTrace &tr) {
            return std::array<std::uint64_t, 3>{
                tr.e2eLatency(), tr.clientStart(),
                FleetTraceLog::traceIdOf(pos + 1)};
        },
        ranks);
    const auto dominant = [&](const FleetTrace &tr) {
        const HopSlices s = sliceTrace(tr, forward_delay);
        int best = 0;
        for (int h = 1; h < HopSlices::kNumHops; ++h)
            if (s.t[h] > s.t[best])
                best = h;
        return std::string(kHopNames[best]);
    };
    const FleetTrace &p50 = *picks[0];
    const FleetTrace &p99 = *picks[1];
    const FleetTrace &p999 = *picks[2];
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
