#include "overload/overload_config.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "sim/strict_parse.hh"

namespace fsim
{

namespace
{

/** How one spec key reads and prints its value. */
enum class Unit
{
    kCount,   //!< whole number
    kBool,    //!< 0 or 1
    kRatio,   //!< any number; printed as %g, with more digits if needed
    kUsec,    //!< microseconds of a Tick member, printed to the tick
    kMsec,    //!< milliseconds of a Tick member; parse-only alias
};

/** The member value @p num in @p unit stands for. */
double
inUnits(Unit unit, double num)
{
    if (unit == Unit::kUsec)
        return static_cast<double>(ticksFromUsec(num));
    if (unit == Unit::kMsec)
        return static_cast<double>(ticksFromMsec(num));
    return num;
}

/** One spec key: its unit, its least value and accessors of the member
 *  it sets. Values travel as doubles: every member value the grammar
 *  reaches (ticks included) is a whole number below 2^53 or a double
 *  already. */
struct Key
{
    const char *key;
    Unit unit;
    double lo;
    double (*get)(const OverloadConfig &);
    void (*set)(OverloadConfig &, double);
};

template <auto M>
constexpr Key
key(const char *name, Unit unit, double lo = 0.0)
{
    using T = std::remove_cvref_t<decltype(OverloadConfig{}.*M)>;
    return {name, unit, lo,
            [](const OverloadConfig &c) { return static_cast<double>(c.*M); },
            [](OverloadConfig &c, double v) { c.*M = static_cast<T>(v); }};
}

/** Every key, in the order serializeOverloadSpec() prints them. */
const Key kKeys[] = {
    key<&OverloadConfig::softirqBudget>("budget", Unit::kCount),
    key<&OverloadConfig::synGate>("gate", Unit::kCount),
    key<&OverloadConfig::queueDeadline>("deadline_us", Unit::kUsec),
    key<&OverloadConfig::queueDeadline>("deadline_ms", Unit::kMsec),
    key<&OverloadConfig::workerCap>("cap", Unit::kCount),
    key<&OverloadConfig::brownout>("brownout", Unit::kBool),
    key<&OverloadConfig::brownoutBytes>("brownout_bytes", Unit::kCount),
    key<&OverloadConfig::brownoutCostDivisor>("brownout_divisor",
                                              Unit::kCount, 1.0),
    key<&OverloadConfig::healthRequestBytes>("health_bytes", Unit::kCount),
    key<&OverloadConfig::acceptHighWatermark>("high", Unit::kRatio),
    key<&OverloadConfig::acceptCriticalWatermark>("critical", Unit::kRatio),
    key<&OverloadConfig::acceptLowWatermark>("low", Unit::kRatio),
};

/** The key that sets member @p M: key<M>() gives every row of one
 *  member the same getter, so the getter names the member. */
template <auto M>
std::string
keyOf()
{
    return std::find_if(std::begin(kKeys), std::end(kKeys), [](const Key &k) {
               return k.get == key<M>("", Unit::kCount).get;
           })->key;
}

} // namespace

bool
parseOverloadSpec(const std::string &text, OverloadConfig &cfg,
                  std::string &err)
{
    if (text.empty()) {
        err = "empty overload spec";
        return false;
    }
    std::istringstream is(text);
    for (std::string tok; std::getline(is, tok, ',');) {
        if (tok.empty())
            continue;
        std::size_t eq = tok.find('=');
        double num = 0.0;
        // strictDouble refuses nan and inf: a NaN watermark passes the
        // low < high <= critical check (every comparison is false).
        if (eq == std::string::npos ||
            !strictDouble(tok.substr(eq + 1), num)) {
            err = "malformed token '" + tok + "' (want key=number)";
            return false;
        }
        const std::string name = tok.substr(0, eq);
        const Key *k = nullptr;
        for (const Key &cand : kKeys)
            if (name == cand.key)
                k = &cand;
        if (!k) {
            err = "unknown overload key '" + name + "' (valid:";
            for (const Key &cand : kKeys)
                err += std::string(&cand == kKeys ? " " : ", ") + cand.key;
            err += ")";
            return false;
        }
        // Integer knobs are int or narrower: keep every value in range.
        const bool whole = k->unit == Unit::kCount || k->unit == Unit::kBool;
        const double max = k->unit == Unit::kBool
                               ? 1.0
                               : std::numeric_limits<int>::max();
        if (num < k->lo || num > max ||
            (whole && num != std::floor(num))) {
            char want[64];
            std::snprintf(want, sizeof(want), "%s in [%.0f, %.0f]",
                          whole ? "a whole number" : "a number", k->lo, max);
            err = "bad value in '" + tok + "' (want " + want + ")";
            return false;
        }
        k->set(cfg, inUnits(k->unit, num));
        cfg.enabled = true;
    }
    if (cfg.acceptLowWatermark >= cfg.acceptHighWatermark ||
        cfg.acceptHighWatermark > cfg.acceptCriticalWatermark) {
        err = "watermarks must satisfy " +
              keyOf<&OverloadConfig::acceptLowWatermark>() + " < " +
              keyOf<&OverloadConfig::acceptHighWatermark>() + " <= " +
              keyOf<&OverloadConfig::acceptCriticalWatermark>();
        return false;
    }
    return true;
}

std::string
serializeOverloadSpec(const OverloadConfig &cfg)
{
    if (!cfg.enabled)
        return "";
    // parse(serialize(cfg)) == cfg, so a printed reproducer command
    // rebuilds the exact configuration. Ratios start from %g's six
    // digits; a tick prints as the midpoint of its microsecond interval.
    std::string s;
    for (const Key &k : kKeys) {
        if (k.unit == Unit::kMsec)
            continue;
        const double v = k.get(cfg);
        const bool g = k.unit == Unit::kRatio;
        const double shown =
            k.unit == Unit::kUsec ? (v + 0.5) / (kCoreHz / 1e6) : v;
        char buf[64];
        for (int digits = g ? 6 : 0; digits <= 17; ++digits) {
            std::snprintf(buf, sizeof(buf), g ? "%.*g" : "%.*f", digits,
                          shown);
            if (inUnits(k.unit, std::strtod(buf, nullptr)) == v)
                break;
        }
        s += std::string(s.empty() ? "" : ",") + k.key + "=" + buf;
    }
    return s;
}

} // namespace fsim
