#include "trace/trace_report.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "stats/stats.hh"

namespace fsim
{

double
PhaseBreakdown::total(Phase p) const
{
    if (fractions.empty())
        return 0.0;
    double s = 0.0;
    for (const auto &core : fractions)
        s += core[static_cast<int>(p)];
    return s / static_cast<double>(fractions.size());
}

PhaseBreakdown
phaseBreakdown(const PhaseSnapshot &d, Tick span)
{
    PhaseBreakdown b;
    b.fractions.resize(d.perCore.size());
    for (std::size_t c = 0; c < d.perCore.size(); ++c) {
        auto &f = b.fractions[c];
        f.fill(0.0);
        if (span == 0)
            continue;
        std::uint64_t busy = 0;
        for (int p = 0; p < kNumChargedPhases; ++p)
            busy += d.perCore[c][p];
        // A task that started inside the window may finish past its
        // end, so attributed cycles can slightly exceed the span; scale
        // the busy phases down pro rata so fractions stay a partition.
        double denom = static_cast<double>(span);
        double scale = busy > span ? denom / static_cast<double>(busy)
                                   : 1.0;
        double busy_frac = 0.0;
        for (int p = 0; p < kNumChargedPhases; ++p) {
            f[p] = static_cast<double>(d.perCore[c][p]) * scale / denom;
            busy_frac += f[p];
        }
        f[static_cast<int>(Phase::kIdle)] =
            busy_frac < 1.0 ? 1.0 - busy_frac : 0.0;
    }
    return b;
}

TextTable
phaseBreakdownTable(const PhaseBreakdown &b)
{
    TextTable table;
    std::vector<std::string> hdr{"core"};
    for (int p = 0; p < kNumPhases; ++p)
        hdr.push_back(phaseName(static_cast<Phase>(p)));
    table.header(hdr);
    for (std::size_t c = 0; c < b.fractions.size(); ++c) {
        std::vector<std::string> row{std::to_string(c)};
        for (int p = 0; p < kNumPhases; ++p)
            row.push_back(formatPercent(b.fractions[c][p]));
        table.row(row);
    }
    if (b.fractions.size() > 1) {
        std::vector<std::string> row{"all"};
        for (int p = 0; p < kNumPhases; ++p)
            row.push_back(formatPercent(b.total(static_cast<Phase>(p))));
        table.row(row);
    }
    return table;
}

std::vector<std::pair<std::string, std::uint64_t>>
foldedStacks(const PhaseSnapshot &d)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(d.folded.size());
    for (const auto &kv : d.folded) {
        if (kv.second == 0)
            continue;
        out.emplace_back(decodeFoldedKey(kv.first), kv.second);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    return out;
}

std::vector<QueueSample>
queueTimeline(const Tracer &tracer, TraceQueueId queue)
{
    std::vector<QueueSample> out;
    tracer.queueDepths(queue).forEachBucket(
        [&](Tick tick, std::uint32_t depth) {
            out.push_back(QueueSample{tick, depth, queue});
        });
    return out;
}

} // namespace fsim
