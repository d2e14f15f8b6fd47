#include "trace/span_forensics.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace fsim
{

namespace
{

Tick
percentileOf(const std::vector<Tick> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const double pos = p * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(pos + 0.5)];
}

ExemplarBreakdown
breakdownOf(const ConnSpanTrace &tr, const char *percentile)
{
    ExemplarBreakdown ex;
    ex.percentile = percentile;
    ex.connId = tr.connId;
    ex.latency = tr.serviceLatency();
    ex.stageTicks.assign(kNumConnStages, 0);
    ex.stageCounts.assign(kNumConnStages, 0);
    for (const ConnSpan &sp : tr.spans) {
        const int idx = static_cast<int>(sp.stage);
        ex.stageTicks[idx] += sp.end - sp.begin;
        ++ex.stageCounts[idx];
        if (connStageKind(sp.stage) != ConnStageKind::kWait &&
            sp.core >= 0 &&
            std::find(ex.cores.begin(), ex.cores.end(),
                      static_cast<int>(sp.core)) == ex.cores.end())
            ex.cores.push_back(sp.core);
    }
    std::sort(ex.cores.begin(), ex.cores.end());
    // Attributable time = exec + wait stage totals; sub-stages (lock
    // spin, VFS) live inside exec spans and would double-count.
    Tick covered = 0;
    for (int s = 0; s < kNumConnStages; ++s)
        if (connStageKind(static_cast<ConnStage>(s)) !=
            ConnStageKind::kSub)
            covered += ex.stageTicks[s];
    ex.unattributed = ex.latency > covered ? ex.latency - covered : 0;
    return ex;
}

} // namespace

SpanForensics
buildSpanForensics(const ConnSpanLog &log, std::size_t from_idx)
{
    SpanForensics f;
    f.enabled = log.enabled();
    f.live = log.liveCount();
    f.spansRecorded = log.spansRecorded();
    f.spansDropped = log.spansDropped();
    f.tracesDropped = log.tracesDropped();
    if (!f.enabled)
        return f;

    const auto &all = log.completed();
    if (from_idx > all.size())
        from_idx = all.size();
    const std::size_t n = all.size() - from_idx;
    f.completed = n;

    // Per-stage distributions over the window's completed connections.
    std::vector<std::vector<Tick>> per_stage(kNumConnStages);
    for (std::size_t i = from_idx; i < all.size(); ++i) {
        const ConnSpanTrace &tr = all[i];
        if (tr.shedReason != ConnSpanTrace::kNotShed)
            ++f.shed;
        Tick totals[kNumConnStages] = {};
        bool seen[kNumConnStages] = {};
        for (const ConnSpan &sp : tr.spans) {
            const int idx = static_cast<int>(sp.stage);
            totals[idx] += sp.end - sp.begin;
            seen[idx] = true;
        }
        for (int s = 0; s < kNumConnStages; ++s)
            if (seen[s])
                per_stage[s].push_back(totals[s]);
    }
    for (int s = 0; s < kNumConnStages; ++s) {
        std::vector<Tick> &v = per_stage[s];
        if (v.empty())
            continue;
        std::sort(v.begin(), v.end());
        StagePercentiles sp;
        sp.stage = static_cast<ConnStage>(s);
        sp.count = v.size();
        sp.p50 = percentileOf(v, 0.50);
        sp.p90 = percentileOf(v, 0.90);
        sp.p99 = percentileOf(v, 0.99);
        sp.p999 = percentileOf(v, 0.999);
        sp.max = v.back();
        for (Tick t : v)
            sp.totalTicks += t;
        f.stages.push_back(sp);
    }

    // Exemplars: rank passive connections by service latency with a
    // (latency, connId) sort so equal latencies pick deterministically.
    std::vector<std::pair<Tick, const ConnSpanTrace *>> ranked;
    ranked.reserve(n);
    for (std::size_t i = from_idx; i < all.size(); ++i)
        if (all[i].passive)
            ranked.emplace_back(all[i].serviceLatency(), &all[i]);
    if (ranked.empty())
        for (std::size_t i = from_idx; i < all.size(); ++i)
            ranked.emplace_back(all[i].serviceLatency(), &all[i]);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second->connId < b.second->connId;
              });
    if (!ranked.empty()) {
        const auto pick = [&](double p) -> const ConnSpanTrace * {
            const double pos = p * static_cast<double>(ranked.size() - 1);
            return ranked[static_cast<std::size_t>(pos + 0.5)].second;
        };
        f.exemplars.push_back(breakdownOf(*pick(0.50), "p50"));
        f.exemplars.push_back(breakdownOf(*pick(0.99), "p99"));
        f.exemplars.push_back(breakdownOf(*pick(0.999), "p999"));

        const ExemplarBreakdown &p99 = f.exemplars[1];
        Tick best = 0;
        for (int s = 0; s < kNumConnStages; ++s) {
            if (connStageKind(static_cast<ConnStage>(s)) ==
                ConnStageKind::kSub)
                continue;
            if (p99.stageTicks[s] > best) {
                best = p99.stageTicks[s];
                f.dominantTailStage =
                    connStageName(static_cast<ConnStage>(s));
            }
        }
    }
    return f;
}

std::string
renderSpanForensics(const SpanForensics &f, const std::string &label)
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf), "tail forensics [%s]\n",
                  label.c_str());
    out += buf;
    if (!f.enabled) {
        out += "  span tracing disabled (--notrace); no data\n";
        return out;
    }
    std::snprintf(buf, sizeof(buf),
                  "  completed=%" PRIu64 " live=%" PRIu64 " shed=%" PRIu64
                  " spans=%" PRIu64 " (dropped %" PRIu64
                  " spans, %" PRIu64 " traces)\n",
                  f.completed, f.live, f.shed, f.spansRecorded,
                  f.spansDropped, f.tracesDropped);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  %-14s %9s %9s %9s %9s %9s %9s\n", "stage", "count",
                  "p50", "p90", "p99", "p999", "max");
    out += buf;
    for (const StagePercentiles &sp : f.stages) {
        std::snprintf(buf, sizeof(buf),
                      "  %-14s %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                      " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 "\n",
                      connStageName(sp.stage), sp.count,
                      static_cast<std::uint64_t>(sp.p50),
                      static_cast<std::uint64_t>(sp.p90),
                      static_cast<std::uint64_t>(sp.p99),
                      static_cast<std::uint64_t>(sp.p999),
                      static_cast<std::uint64_t>(sp.max));
        out += buf;
    }
    if (!f.exemplars.empty()) {
        out += "  exemplars (service latency, ticks):\n";
        for (const ExemplarBreakdown &ex : f.exemplars) {
            std::snprintf(buf, sizeof(buf),
                          "    %-4s conn #%" PRIu64 "  latency %" PRIu64
                          "  cores",
                          ex.percentile.c_str(), ex.connId,
                          static_cast<std::uint64_t>(ex.latency));
            out += buf;
            for (int c : ex.cores) {
                std::snprintf(buf, sizeof(buf), " %d", c);
                out += buf;
            }
            out += "\n";
            // Stages sorted by share, largest first, sub-stages last.
            std::vector<int> order;
            for (int s = 0; s < kNumConnStages; ++s)
                if (ex.stageTicks[s] > 0)
                    order.push_back(s);
            std::sort(order.begin(), order.end(), [&](int a, int b) {
                const bool sa = connStageKind(static_cast<ConnStage>(a)) ==
                                ConnStageKind::kSub;
                const bool sb = connStageKind(static_cast<ConnStage>(b)) ==
                                ConnStageKind::kSub;
                if (sa != sb)
                    return sb;
                if (ex.stageTicks[a] != ex.stageTicks[b])
                    return ex.stageTicks[a] > ex.stageTicks[b];
                return a < b;
            });
            for (int s : order) {
                const double share =
                    ex.latency
                        ? 100.0 * static_cast<double>(ex.stageTicks[s]) /
                              static_cast<double>(ex.latency)
                        : 0.0;
                std::snprintf(
                    buf, sizeof(buf),
                    "      %-14s %9" PRIu64 "  %5.1f%%  (x%u)%s\n",
                    connStageName(static_cast<ConnStage>(s)),
                    static_cast<std::uint64_t>(ex.stageTicks[s]), share,
                    ex.stageCounts[s],
                    connStageKind(static_cast<ConnStage>(s)) ==
                            ConnStageKind::kSub
                        ? "  [sub]"
                        : "");
                out += buf;
            }
            if (ex.unattributed > 0) {
                const double share =
                    ex.latency ? 100.0 *
                                     static_cast<double>(ex.unattributed) /
                                     static_cast<double>(ex.latency)
                               : 0.0;
                std::snprintf(buf, sizeof(buf),
                              "      %-14s %9" PRIu64 "  %5.1f%%\n",
                              "(unattributed)",
                              static_cast<std::uint64_t>(ex.unattributed),
                              share);
                out += buf;
            }
        }
        std::snprintf(buf, sizeof(buf), "  dominant tail stage: %s\n",
                      f.dominantTailStage.c_str());
        out += buf;
    }
    return out;
}

} // namespace fsim
