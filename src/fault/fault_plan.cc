#include "fault/fault_plan.hh"

#include <cctype>
#include <sstream>

#include "sim/strict_parse.hh"

namespace fsim
{

namespace
{

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKinds[] = {
    {FaultKind::kLossBurst, "loss_burst"},
    {FaultKind::kReorder, "reorder"},
    {FaultKind::kDuplicate, "duplicate"},
    {FaultKind::kSynFlood, "syn_flood"},
    {FaultKind::kBackendSlow, "backend_slow"},
    {FaultKind::kBackendDown, "backend_down"},
    {FaultKind::kAtrShrink, "atr_shrink"},
    {FaultKind::kMachineCrash, "machine_crash"},
    {FaultKind::kRollingRestart, "rolling_restart"},
    {FaultKind::kLbCrash, "lb_crash"},
    {FaultKind::kMachineDegrade, "machine_degrade"},
    {FaultKind::kNetPartition, "net_partition"},
};

std::string
validKindList()
{
    std::string s;
    for (const KindName &k : kKinds) {
        if (!s.empty())
            s += ", ";
        s += k.name;
    }
    return s;
}

bool
kindFromName(const std::string &name, FaultKind &out)
{
    for (const KindName &k : kKinds) {
        if (name == k.name) {
            out = k.kind;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string part;
    while (std::getline(is, part, sep))
        out.push_back(part);
    return out;
}

/** Compact double formatting that round-trips through parse. */
std::string
numStr(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** net_partition group token: clients | lbs | ms | lb<k> | m<s>. */
bool
validGroupToken(const std::string &tok)
{
    if (tok == "clients" || tok == "lbs" || tok == "ms")
        return true;
    std::size_t digits = 0;
    if (tok.compare(0, 2, "lb") == 0)
        digits = 2;
    else if (tok.compare(0, 1, "m") == 0)
        digits = 1;
    else
        return false;
    if (tok.size() == digits)
        return false;
    for (std::size_t i = digits; i < tok.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            return false;
    return true;
}

} // anonymous namespace

const char *
faultKindName(FaultKind kind)
{
    for (const KindName &k : kKinds)
        if (k.kind == kind)
            return k.name;
    return "?";
}

bool
FaultPlan::has(FaultKind kind) const
{
    for (const FaultEvent &e : events)
        if (e.kind == kind)
            return true;
    return false;
}

bool
parseFaultPlan(const std::string &text, FaultPlan &out, std::string &err)
{
    FaultPlan plan;
    for (const std::string &raw : split(text, ';')) {
        std::string item = trim(raw);
        if (item.empty())
            continue;

        // Plan-level seed: a bare "seed=N" element.
        if (item.compare(0, 5, "seed=") == 0) {
            if (!strictU64(trim(item.substr(5)), plan.seed)) {
                err = "bad fault plan seed '" + item + "'";
                return false;
            }
            continue;
        }

        std::size_t at = item.find('@');
        if (at == std::string::npos) {
            err = "fault event '" + item + "' missing '@start-end'; "
                  "expected kind@startSec-endSec[:param=value,...]";
            return false;
        }
        FaultEvent ev;
        std::string kind = trim(item.substr(0, at));
        if (!kindFromName(kind, ev.kind)) {
            err = "unknown fault kind '" + kind + "'; valid kinds: " +
                  validKindList();
            return false;
        }

        std::string rest = item.substr(at + 1);
        std::size_t colon = rest.find(':');
        std::string window = trim(colon == std::string::npos
                                      ? rest
                                      : rest.substr(0, colon));
        std::size_t dash = window.find('-');
        if (dash == std::string::npos) {
            err = "fault event '" + item + "': window must be "
                  "startSec-endSec";
            return false;
        }
        if (!strictDouble(trim(window.substr(0, dash)), ev.startSec) ||
            !strictDouble(trim(window.substr(dash + 1)), ev.endSec)) {
            err = "fault event '" + item + "': bad window time '" +
                  window + "' (want finite startSec-endSec)";
            return false;
        }
        if (ev.startSec < 0.0 || ev.endSec <= ev.startSec) {
            err = "fault event '" + item + "': window must satisfy "
                  "0 <= start < end";
            return false;
        }

        if (colon != std::string::npos) {
            for (const std::string &p : split(rest.substr(colon + 1),
                                              ',')) {
                std::string kv = trim(p);
                if (kv.empty())
                    continue;
                std::size_t eq = kv.find('=');
                if (eq == std::string::npos) {
                    err = "fault event '" + item + "': parameter '" + kv +
                          "' is not key=value";
                    return false;
                }
                std::string key = trim(kv.substr(0, eq));
                std::string val = trim(kv.substr(eq + 1));
                bool numOk = true;
                if (key == "rate")
                    numOk = strictDouble(val, ev.rate);
                else if (key == "factor")
                    numOk = strictDouble(val, ev.factor);
                else if (key == "target")
                    numOk = strictInt(val, ev.target);
                else if (key == "jitter")
                    numOk = strictDouble(val, ev.jitterUsec);
                else if (key == "size")
                    numOk = strictU32(val, ev.tableSize);
                else if (key == "mode") {
                    if (val == "rst")
                        ev.mode = FaultEvent::CrashMode::kRst;
                    else if (val == "blackhole")
                        ev.mode = FaultEvent::CrashMode::kBlackhole;
                    else {
                        err = "fault event '" + item + "': mode must "
                              "be rst or blackhole";
                        return false;
                    }
                } else if (key == "drain_ms")
                    numOk = strictDouble(val, ev.drainMsec);
                else if (key == "down_ms")
                    numOk = strictDouble(val, ev.downMsec);
                else if (key == "flap_ms")
                    numOk = strictDouble(val, ev.flapMsec);
                else if (key == "a") {
                    if (!validGroupToken(val)) {
                        err = "fault event '" + item + "': bad group "
                              "token '" + val + "' for 'a' (valid: "
                              "clients, lbs, ms, lb<k>, m<s>)";
                        return false;
                    }
                    ev.partA = val;
                } else if (key == "b") {
                    if (!validGroupToken(val)) {
                        err = "fault event '" + item + "': bad group "
                              "token '" + val + "' for 'b' (valid: "
                              "clients, lbs, ms, lb<k>, m<s>)";
                        return false;
                    }
                    ev.partB = val;
                } else {
                    err = "fault event '" + item + "': unknown "
                          "parameter '" + key + "' (valid: rate, "
                          "factor, target, jitter, size, mode, "
                          "drain_ms, down_ms, flap_ms, a, b)";
                    return false;
                }
                if (!numOk) {
                    err = "fault event '" + item + "': bad value '" +
                          val + "' for '" + key + "' (must be a whole, "
                          "finite number)";
                    return false;
                }
            }
        }

        // Per-kind validity so armed plans cannot misbehave silently.
        switch (ev.kind) {
          case FaultKind::kLossBurst:
          case FaultKind::kReorder:
          case FaultKind::kDuplicate:
            if (ev.rate <= 0.0 || ev.rate >= 1.0) {
                err = "fault event '" + item + "': rate must be in "
                      "(0, 1)";
                return false;
            }
            break;
          case FaultKind::kSynFlood:
            if (ev.rate <= 0.0) {
                err = "fault event '" + item + "': syn_flood needs "
                      "rate > 0 (SYNs per second)";
                return false;
            }
            break;
          case FaultKind::kBackendSlow:
            if (ev.factor <= 1.0) {
                err = "fault event '" + item + "': backend_slow needs "
                      "factor > 1";
                return false;
            }
            break;
          case FaultKind::kBackendDown:
            break;
          case FaultKind::kAtrShrink:
            if (ev.tableSize == 0 ||
                (ev.tableSize & (ev.tableSize - 1)) != 0) {
                err = "fault event '" + item + "': size must be a "
                      "power of two";
                return false;
            }
            break;
          case FaultKind::kMachineCrash:
          case FaultKind::kLbCrash:
            if (ev.target < 0) {
                err = "fault event '" + item + "': needs target >= 0 "
                      "(machine index)";
                return false;
            }
            break;
          case FaultKind::kRollingRestart:
            if (ev.drainMsec <= 0.0 || ev.downMsec <= 0.0) {
                err = "fault event '" + item + "': drain_ms and down_ms "
                      "must be > 0";
                return false;
            }
            break;
          case FaultKind::kMachineDegrade:
            if (ev.target < 0) {
                err = "fault event '" + item + "': needs target >= 0 "
                      "(machine index)";
                return false;
            }
            if (ev.factor < 1.0) {
                err = "fault event '" + item + "': machine_degrade "
                      "needs factor >= 1 (CPU slowdown multiplier)";
                return false;
            }
            if (ev.rate < 0.0 || ev.rate >= 1.0) {
                err = "fault event '" + item + "': rate (NIC egress "
                      "loss) must be in [0, 1)";
                return false;
            }
            if (ev.jitterUsec < 0.0 || ev.flapMsec < 0.0) {
                err = "fault event '" + item + "': jitter and flap_ms "
                      "must be >= 0";
                return false;
            }
            if (ev.factor == 1.0 && ev.rate == 0.0 &&
                ev.jitterUsec == 0.0) {
                err = "fault event '" + item + "': degrade is a no-op "
                      "(factor=1, rate=0, jitter=0)";
                return false;
            }
            break;
          case FaultKind::kNetPartition:
            if (ev.partA == ev.partB) {
                err = "fault event '" + item + "': partition groups "
                      "'a' and 'b' must differ";
                return false;
            }
            break;
        }
        plan.events.push_back(ev);
    }
    out = plan;
    return true;
}

std::string
serializeFaultPlan(const FaultPlan &plan)
{
    if (plan.empty())
        return "";
    std::string s;
    for (const FaultEvent &e : plan.events) {
        if (!s.empty())
            s += ";";
        s += faultKindName(e.kind);
        s += '@';
        s += numStr(e.startSec);
        s += '-';
        s += numStr(e.endSec);
        switch (e.kind) {
          case FaultKind::kLossBurst:
          case FaultKind::kReorder:
          case FaultKind::kDuplicate:
            s += ":rate=";
            s += numStr(e.rate);
            if (e.kind == FaultKind::kReorder) {
                s += ",jitter=";
                s += numStr(e.jitterUsec);
            }
            break;
          case FaultKind::kSynFlood:
            s += ":rate=";
            s += numStr(e.rate);
            break;
          case FaultKind::kBackendSlow:
            s += ":factor=";
            s += numStr(e.factor);
            s += ",target=";
            s += std::to_string(e.target);
            break;
          case FaultKind::kBackendDown:
            s += ":target=";
            s += std::to_string(e.target);
            break;
          case FaultKind::kAtrShrink:
            s += ":size=";
            s += std::to_string(e.tableSize);
            break;
          case FaultKind::kMachineCrash:
            s += ":target=";
            s += std::to_string(e.target);
            s += ",mode=";
            s += e.mode == FaultEvent::CrashMode::kRst ? "rst"
                                                       : "blackhole";
            break;
          case FaultKind::kRollingRestart:
            s += ":drain_ms=";
            s += numStr(e.drainMsec);
            s += ",down_ms=";
            s += numStr(e.downMsec);
            break;
          case FaultKind::kLbCrash:
            s += ":target=";
            s += std::to_string(e.target);
            break;
          case FaultKind::kMachineDegrade:
            s += ":target=";
            s += std::to_string(e.target);
            s += ",factor=";
            s += numStr(e.factor);
            s += ",rate=";
            s += numStr(e.rate);
            s += ",jitter=";
            s += numStr(e.jitterUsec);
            s += ",flap_ms=";
            s += numStr(e.flapMsec);
            break;
          case FaultKind::kNetPartition:
            s += ":a=";
            s += e.partA;
            s += ",b=";
            s += e.partB;
            break;
        }
    }
    if (plan.seed != FaultPlan{}.seed) {
        s += ";seed=";
        s += std::to_string(plan.seed);
    }
    return s;
}

} // namespace fsim
