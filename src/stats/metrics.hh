/**
 * @file
 * Typed metrics registry + in-memory time series: the simulator's
 * answer to a Prometheus client library.
 *
 * Producers register fixed slots up front (counter / gauge /
 * histogram) and mutate them from hot paths; the harness samples every
 * slot once per stat window into an in-memory time series that lands
 * in the bench JSON (`timeseries` block) and, on request, as
 * Prometheus-style text via --metrics=<path>.
 *
 * Discipline mirrors the span log: registration happens once at setup;
 * mutation writes pre-registered slots and never allocates; sampling
 * is the only path that grows memory, it no-ops when the registry is
 * disabled, and allocations() counts exactly the points appended — so
 * a --notrace run asserts allocations() == 0. The registry only
 * observes simulated state; enabling or disabling it can never change
 * results or fingerprints.
 */

#ifndef FSIM_STATS_METRICS_HH
#define FSIM_STATS_METRICS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

enum class MetricKind : std::uint8_t
{
    kCounter = 0,   //!< monotone cumulative count
    kGauge,         //!< instantaneous level
    kHistogram,     //!< pow2-bucketed distribution; sampled as p99
};

/** Stable lowercase kind name ("counter" / "gauge" / "histogram"). */
const char *metricKindName(MetricKind k);

/** One sampled series, ready for JSON / Prometheus emission. */
struct MetricSeries
{
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    /** (sample tick, value) per stat window, in sample order. For a
     *  histogram the value is the p99 upper-bucket bound over the
     *  cumulative distribution at sample time. */
    std::vector<std::pair<Tick, double>> points;

    bool operator==(const MetricSeries &) const = default;
};

/** Frozen copy of every series (attached to ExperimentResult). */
struct MetricsSnapshot
{
    bool enabled = false;
    /** Nominal sampling period in ticks (one point per stat window). */
    Tick samplePeriod = 0;
    std::vector<MetricSeries> series;

    bool operator==(const MetricsSnapshot &) const = default;
};

/** Fixed-slot metrics registry (one per fleet/testbed). */
class MetricsRegistry
{
  public:
    using MetricId = int;
    static constexpr MetricId kInvalidMetric = -1;
    /** Histogram buckets: value v lands in floor(log2(v + 1)),
     *  clamped — upper bound of bucket i is 2^(i+1) - 2. */
    static constexpr int kHistBuckets = 48;

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void setSamplePeriod(Tick t) { samplePeriod_ = t; }

    /** @name Registration (setup time, before the run) */
    /** @{ */
    MetricId addCounter(const std::string &name);
    MetricId addGauge(const std::string &name);
    MetricId addHistogram(const std::string &name);
    /** @} */

    /** @name Mutation (hot path, allocation-free, fixed slots) */
    /** @{ */
    void add(MetricId id, std::uint64_t delta = 1);
    void set(MetricId id, double v);
    void observe(MetricId id, std::uint64_t v);
    /** @} */

    /** Append one point per registered metric at @p now. No-op (and
     *  allocation-free) when disabled. */
    void sample(Tick now);

    /** Points appended so far; exactly zero when disabled. */
    std::uint64_t allocations() const { return allocations_; }

    MetricsSnapshot snapshot() const;

  private:
    struct Slot
    {
        std::string name;
        MetricKind kind = MetricKind::kCounter;
        std::uint64_t count = 0;    //!< counter value / histogram n
        double gauge = 0.0;
        std::vector<std::uint64_t> buckets;     //!< histogram only
        std::vector<std::pair<Tick, double>> points;
    };

    MetricId addSlot(const std::string &name, MetricKind kind);
    double histP99(const Slot &s) const;

    bool enabled_ = true;
    Tick samplePeriod_ = 0;
    std::uint64_t allocations_ = 0;
    std::vector<Slot> slots_;
};

/**
 * Write @p snap as Prometheus text exposition (one `# TYPE` line plus
 * the final sampled value per series; histogram series surface as
 * gauges named `<name>_p99`). Metric names are sanitized to
 * [a-zA-Z0-9_:]. @return false on I/O error or empty snapshot.
 */
bool writePrometheusText(const std::string &path,
                         const MetricsSnapshot &snap);

} // namespace fsim

#endif // FSIM_STATS_METRICS_HH
