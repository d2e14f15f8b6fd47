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
    f.firstCompleted = from_idx;
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
        const ConnSpanFold fold(tr);
        for (int s = 0; s < kNumConnStages; ++s)
            if (fold.stageCounts[s]) {
                ++count[s];
                sum[s] += fold.stageTicks[s];
            }
    });

    // Per-stage distributions over the connections with a span there,
    // one group per stage, so each pass folds every trace once.
    std::array<std::array<std::uint64_t, 5>, kNumConnStages> ranks{};
    for (int s = 0; s < kNumConnStages; ++s) {
        const std::uint64_t n = count[s];
        if (n)
            ranks[s] = {rankOf(0.50, n), rankOf(0.90, n), rankOf(0.99, n),
                        rankOf(0.999, n), n - 1};
    }
    const auto at = selectGroupRanks<8>(
        [&](auto &&sink) {
            forWindow([&](const ConnSpanTrace &tr) {
                const ConnSpanFold fold(tr);
                for (std::size_t s = 0; s < kNumConnStages; ++s)
                    if (fold.stageCounts[s])
                        sink(s, fold.stageTicks[s]);
            });
        },
        ranks);
    for (int s = 0; s < kNumConnStages; ++s) {
        if (count[s] == 0)
            continue;
        StagePercentiles sp;
        sp.stage = static_cast<ConnStage>(s);
        sp.count = count[s];
        sp.p50 = at[s][0].value;
        sp.p90 = at[s][1].value;
        sp.p99 = at[s][2].value;
        sp.p999 = at[s][3].value;
        sp.max = at[s][4].value;
        sp.totalTicks = sum[s];
        f.stages.push_back(sp);
    }

    // Exemplars rank passive connections (all of them when none is
    // passive) by service latency, ties in connId order.
    const std::uint64_t ranked = passive ? passive : f.completed;
    if (ranked == 0)
        return f;
    const auto picks = selectRecords<ConnSpanTrace>(
        [&](auto &&fn) {
            forWindow([&](const ConnSpanTrace &tr) {
                if (tr.passive || passive == 0)
                    fn(tr);
            });
        },
        [](const ConnSpanTrace &tr) {
            return std::array<std::uint64_t, 2>{tr.serviceLatency(),
                                                tr.connId};
        },
        std::array<std::uint64_t, 3>{rankOf(0.50, ranked),
                                     rankOf(0.99, ranked),
                                     rankOf(0.999, ranked)});
    const char *const names[] = {"p50", "p99", "p999"};
    for (std::size_t k = 0; k < picks.size(); ++k)
        f.exemplars.push_back({ConnSpanFold(*picks[k]), names[k],
                               picks[k]->connId});

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
            for (int c = 0; c < ConnSpanFold::kMaxCores; ++c) {
                if (!ex.cores[static_cast<std::size_t>(c)])
                    continue;
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
