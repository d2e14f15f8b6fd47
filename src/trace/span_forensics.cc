#include "trace/span_forensics.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

#include "sim/order_stat.hh"

namespace fsim
{

namespace
{

/** Index of percentile @p p among @p n sorted values (nearest rank). */
std::uint64_t
rankOf(double p, std::uint64_t n)
{
    return static_cast<std::uint64_t>(p * static_cast<double>(n - 1) + 0.5);
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
    f.completed = all.size() - from_idx;

    // Every statistic below is a pass over the window's completed
    // traces in place; nothing per trace is copied.
    const auto forWindow = [&](auto &&fn) {
        for (std::size_t i = from_idx; i < all.size(); ++i)
            fn(all[i]);
    };
    std::uint64_t count[kNumConnStages] = {};
    std::uint64_t sum[kNumConnStages] = {};
    std::uint64_t passive = 0;
    forWindow([&](const ConnSpanTrace &tr) {
        if (tr.shedReason != ConnSpanTrace::kNotShed)
            ++f.shed;
        passive += tr.passive;
        Tick totals[kNumConnStages] = {};
        bool seen[kNumConnStages] = {};
        for (const ConnSpan &sp : tr.spans) {
            const int idx = static_cast<int>(sp.stage);
            totals[idx] += sp.end - sp.begin;
            seen[idx] = true;
        }
        for (int s = 0; s < kNumConnStages; ++s)
            if (seen[s]) {
                ++count[s];
                sum[s] += totals[s];
            }
    });

    // Per-stage distributions over the connections with a span there.
    for (int s = 0; s < kNumConnStages; ++s) {
        const std::uint64_t n = count[s];
        if (n == 0)
            continue;
        const auto at = selectRanks(
            [&](auto &&sink) {
                forWindow([&](const ConnSpanTrace &tr) {
                    Tick total = 0;
                    bool seen = false;
                    for (const ConnSpan &sp : tr.spans)
                        if (static_cast<int>(sp.stage) == s) {
                            total += sp.end - sp.begin;
                            seen = true;
                        }
                    if (seen)
                        sink(total);
                });
            },
            std::array<std::uint64_t, 5>{rankOf(0.50, n), rankOf(0.90, n),
                                         rankOf(0.99, n), rankOf(0.999, n),
                                         n - 1});
        StagePercentiles sp;
        sp.stage = static_cast<ConnStage>(s);
        sp.count = n;
        sp.p50 = at[0].value;
        sp.p90 = at[1].value;
        sp.p99 = at[2].value;
        sp.p999 = at[3].value;
        sp.max = at[4].value;
        sp.totalTicks = sum[s];
        f.stages.push_back(sp);
    }

    // Exemplars rank passive connections (all of them when none is
    // passive) by service latency, ties in connId order: select the
    // latency, then the id among the connections of that latency.
    const std::uint64_t ranked = passive ? passive : f.completed;
    if (ranked == 0)
        return f;
    const auto forRanked = [&](auto &&fn) {
        forWindow([&](const ConnSpanTrace &tr) {
            if (tr.passive || passive == 0)
                fn(tr);
        });
    };
    const std::array<std::uint64_t, 3> ranks = {
        rankOf(0.50, ranked), rankOf(0.99, ranked), rankOf(0.999, ranked)};
    const auto lats = selectRanks(
        [&](auto &&sink) {
            forRanked([&](const ConnSpanTrace &tr) {
                sink(tr.serviceLatency());
            });
        },
        ranks);
    const auto exemplar = [&](std::size_t k, const char *percentile) {
        const Tick lat = lats[k].value;
        const RankedValue id = selectRank(
            [&](auto &&sink) {
                forRanked([&](const ConnSpanTrace &tr) {
                    if (tr.serviceLatency() == lat)
                        sink(tr.connId);
                });
            },
            ranks[k] - lats[k].below);
        const ConnSpanTrace *pick = nullptr;
        forRanked([&](const ConnSpanTrace &tr) {
            if (!pick && tr.connId == id.value &&
                tr.serviceLatency() == lat)
                pick = &tr;
        });
        return breakdownOf(*pick, percentile);
    };
    f.exemplars.push_back(exemplar(0, "p50"));
    f.exemplars.push_back(exemplar(1, "p99"));
    f.exemplars.push_back(exemplar(2, "p999"));

    const ExemplarBreakdown &p99 = f.exemplars[1];
    Tick best = 0;
    for (int s = 0; s < kNumConnStages; ++s) {
        if (connStageKind(static_cast<ConnStage>(s)) == ConnStageKind::kSub)
            continue;
        if (p99.stageTicks[s] > best) {
            best = p99.stageTicks[s];
            f.dominantTailStage = connStageName(static_cast<ConnStage>(s));
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
