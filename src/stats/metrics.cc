#include "stats/metrics.hh"

#include <cctype>
#include <fstream>

#include "sim/logging.hh"

namespace fsim
{

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::kCounter: return "counter";
      case MetricKind::kGauge: return "gauge";
      case MetricKind::kHistogram: return "histogram";
    }
    return "?";
}

const MetricSeries *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSeries &s : series)
        if (s.name == name)
            return &s;
    return nullptr;
}

MetricsRegistry::MetricId
MetricsRegistry::addSlot(const std::string &name, MetricKind kind)
{
    for (const Slot &s : slots_)
        fsim_assert(s.name != name);
    Slot slot;
    slot.name = name;
    slot.kind = kind;
    if (kind == MetricKind::kHistogram)
        slot.buckets.assign(kHistBuckets, 0);
    slots_.push_back(std::move(slot));
    return static_cast<MetricId>(slots_.size()) - 1;
}

MetricsRegistry::MetricId
MetricsRegistry::addCounter(const std::string &name)
{
    return addSlot(name, MetricKind::kCounter);
}

MetricsRegistry::MetricId
MetricsRegistry::addGauge(const std::string &name)
{
    return addSlot(name, MetricKind::kGauge);
}

MetricsRegistry::MetricId
MetricsRegistry::addHistogram(const std::string &name)
{
    return addSlot(name, MetricKind::kHistogram);
}

void
MetricsRegistry::add(MetricId id, std::uint64_t delta)
{
    if (!enabled_ || id < 0)
        return;
    slots_[static_cast<std::size_t>(id)].count += delta;
}

void
MetricsRegistry::set(MetricId id, double v)
{
    if (!enabled_ || id < 0)
        return;
    slots_[static_cast<std::size_t>(id)].gauge = v;
}

void
MetricsRegistry::observe(MetricId id, std::uint64_t v)
{
    if (!enabled_ || id < 0)
        return;
    Slot &s = slots_[static_cast<std::size_t>(id)];
    int b = 0;
    while (b < kHistBuckets - 1 && (std::uint64_t{2} << b) - 2 < v)
        ++b;
    ++s.buckets[static_cast<std::size_t>(b)];
    ++s.count;
}

double
MetricsRegistry::histP99(const Slot &s) const
{
    if (s.count == 0)
        return 0.0;
    // Smallest bucket whose cumulative count covers 99% of samples;
    // report its upper bound (a deterministic, conservative p99).
    const std::uint64_t need =
        (s.count * 99 + 99) / 100;  // ceil(0.99 * n)
    std::uint64_t cum = 0;
    for (int b = 0; b < kHistBuckets; ++b) {
        cum += s.buckets[static_cast<std::size_t>(b)];
        if (cum >= need)
            return static_cast<double>((std::uint64_t{2} << b) - 2);
    }
    return static_cast<double>((std::uint64_t{2} << (kHistBuckets - 1)) -
                               2);
}

void
MetricsRegistry::sample(Tick now)
{
    if (!enabled_)
        return;
    for (Slot &s : slots_) {
        double v = 0.0;
        switch (s.kind) {
          case MetricKind::kCounter:
            v = static_cast<double>(s.count);
            break;
          case MetricKind::kGauge:
            v = s.gauge;
            break;
          case MetricKind::kHistogram:
            v = histP99(s);
            break;
        }
        s.points.emplace_back(now, v);
        ++allocations_;
    }
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    snap.enabled = enabled_;
    snap.samplePeriod = samplePeriod_;
    snap.series.reserve(slots_.size());
    for (const Slot &s : slots_) {
        MetricSeries ser;
        ser.name = s.name;
        ser.kind = s.kind;
        ser.points = s.points;
        snap.series.push_back(std::move(ser));
    }
    return snap;
}

namespace
{

std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

bool
writePrometheusText(const std::string &path, const MetricsSnapshot &snap)
{
    std::ofstream os(path);
    if (!os)
        return false;
    for (const MetricSeries &s : snap.series) {
        const bool hist = s.kind == MetricKind::kHistogram;
        const std::string name = promName(s.name) + (hist ? "_p99" : "");
        os << "# TYPE " << name << ' '
           << (s.kind == MetricKind::kCounter ? "counter" : "gauge")
           << '\n';
        const double v = s.points.empty() ? 0.0 : s.points.back().second;
        os << name << ' ' << v << '\n';
    }
    return static_cast<bool>(os);
}

} // namespace fsim
