#include "overload/overload_config.hh"

#include <cstdio>
#include <limits>

#include "sim/strict_parse.hh"

namespace fsim
{

namespace
{

bool
splitKv(const std::string &tok, std::string &key, std::string &val)
{
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size())
        return false;
    key = tok.substr(0, eq);
    val = tok.substr(eq + 1);
    return true;
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
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        std::string tok = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? text.size() : comma + 1;
        if (tok.empty())
            continue;

        std::string key, val;
        double num = 0.0;
        // strictDouble refuses nan and inf: a NaN watermark passes the
        // low < high <= critical check (every comparison is false).
        if (!splitKv(tok, key, val) || !strictDouble(val, num)) {
            err = "malformed token '" + tok + "' (want key=number)";
            return false;
        }
        if (num < 0.0) {
            err = "negative value in '" + tok + "'";
            return false;
        }
        // Integer knobs are cast to int or narrower; keep every cast
        // in range.
        if (num > std::numeric_limits<int>::max()) {
            err = "value out of range in '" + tok + "'";
            return false;
        }

        if (key == "budget")
            cfg.softirqBudget = static_cast<std::size_t>(num);
        else if (key == "gate")
            cfg.synGate = static_cast<std::size_t>(num);
        else if (key == "deadline_ms")
            cfg.queueDeadline = ticksFromMsec(num);
        else if (key == "deadline_us")
            cfg.queueDeadline = ticksFromUsec(num);
        else if (key == "cap")
            cfg.workerCap = static_cast<int>(num);
        else if (key == "brownout")
            cfg.brownout = num != 0.0;
        else if (key == "brownout_bytes")
            cfg.brownoutBytes = static_cast<std::uint32_t>(num);
        else if (key == "brownout_divisor")
            cfg.brownoutCostDivisor = static_cast<std::uint32_t>(num);
        else if (key == "health_bytes")
            cfg.healthRequestBytes = static_cast<std::uint32_t>(num);
        else if (key == "high")
            cfg.acceptHighWatermark = num;
        else if (key == "critical")
            cfg.acceptCriticalWatermark = num;
        else if (key == "low")
            cfg.acceptLowWatermark = num;
        else {
            err = "unknown overload key '" + key + "'";
            return false;
        }
        cfg.enabled = true;
    }
    if (cfg.acceptLowWatermark >= cfg.acceptHighWatermark ||
        cfg.acceptHighWatermark > cfg.acceptCriticalWatermark) {
        err = "watermarks must satisfy low < high <= critical";
        return false;
    }
    if (cfg.brownoutCostDivisor == 0) {
        err = "brownout_divisor must be >= 1";
        return false;
    }
    return true;
}

std::string
serializeOverloadSpec(const OverloadConfig &cfg)
{
    if (!cfg.enabled)
        return "";
    // Every knob, round-trippable: parse(serialize(cfg)) == cfg, so a
    // printed reproducer command rebuilds the exact configuration.
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "budget=%zu,gate=%zu,deadline_us=%.0f,cap=%d,"
                  "brownout=%d,brownout_bytes=%u,brownout_divisor=%u,"
                  "health_bytes=%u,high=%g,critical=%g,low=%g",
                  cfg.softirqBudget, cfg.synGate,
                  static_cast<double>(cfg.queueDeadline) /
                      (kCoreHz / 1e6),
                  cfg.workerCap, cfg.brownout ? 1 : 0, cfg.brownoutBytes,
                  cfg.brownoutCostDivisor, cfg.healthRequestBytes,
                  cfg.acceptHighWatermark, cfg.acceptCriticalWatermark,
                  cfg.acceptLowWatermark);
    return buf;
}

} // namespace fsim
