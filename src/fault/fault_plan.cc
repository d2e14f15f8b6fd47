#include "fault/fault_plan.hh"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <sstream>
#include <type_traits>
#include <variant>

#include "sim/strict_parse.hh"

namespace fsim
{

namespace
{

/** Typed pointer to the FaultEvent member one plan parameter sets. The
 *  member's type picks the value check: a finite number, a whole number
 *  (>= 0 for an unsigned member), a kModes name, or a group token. */
using Member = std::variant<double FaultEvent::*, int FaultEvent::*,
                            std::uint32_t FaultEvent::*,
                            FaultEvent::CrashMode FaultEvent::*,
                            std::string FaultEvent::*>;

/** One plan parameter: its key and the member it sets. */
struct Param
{
    const char *key;
    Member member;
};

/** The parameter table: every key of the grammar, spelled once. */
const Param kRate{"rate", &FaultEvent::rate};
const Param kFactor{"factor", &FaultEvent::factor};
const Param kTarget{"target", &FaultEvent::target};
const Param kJitter{"jitter", &FaultEvent::jitterUsec};
const Param kSize{"size", &FaultEvent::tableSize};
const Param kMode{"mode", &FaultEvent::mode};
const Param kDrain{"drain_ms", &FaultEvent::drainMsec};
const Param kDown{"down_ms", &FaultEvent::downMsec};
const Param kFlap{"flap_ms", &FaultEvent::flapMsec};
const Param kGroupA{"a", &FaultEvent::partA};
const Param kGroupB{"b", &FaultEvent::partB};

/** The plan-level element that sets FaultPlan::seed. */
const std::string kSeedKey = "seed=";

/** machine_crash `mode` values, in CrashMode order. */
const char *const kModes[] = {"rst", "blackhole"};

/** One event kind: its token and the only parameters it takes, in the
 *  order serializeFaultPlan() prints them. Rows are in FaultKind order. */
struct KindSpec
{
    FaultKind kind;
    const char *name;
    std::vector<const Param *> params;
};

const KindSpec kKinds[] = {
    {FaultKind::kLossBurst, "loss_burst", {&kRate}},
    {FaultKind::kReorder, "reorder", {&kRate, &kJitter}},
    {FaultKind::kDuplicate, "duplicate", {&kRate}},
    {FaultKind::kSynFlood, "syn_flood", {&kRate}},
    {FaultKind::kBackendSlow, "backend_slow", {&kFactor, &kTarget}},
    {FaultKind::kBackendDown, "backend_down", {&kTarget}},
    {FaultKind::kAtrShrink, "atr_shrink", {&kSize}},
    {FaultKind::kMachineCrash, "machine_crash", {&kTarget, &kMode}},
    {FaultKind::kRollingRestart, "rolling_restart", {&kDrain, &kDown}},
    {FaultKind::kLbCrash, "lb_crash", {&kTarget}},
    {FaultKind::kMachineDegrade, "machine_degrade",
     {&kTarget, &kFactor, &kRate, &kJitter, &kFlap}},
    {FaultKind::kNetPartition, "net_partition", {&kGroupA, &kGroupB}},
};

/** The names of @p items, comma separated. */
template <typename Range, typename Name>
std::string
joined(const Range &items, Name name)
{
    std::string s;
    for (const auto &item : items) {
        if (!s.empty())
            s += ", ";
        s += name(item);
    }
    return s;
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

/** Set @p p's member of @p ev from @p val; "" on success, else what
 *  the member accepts. */
std::string
assign(const Param &p, const std::string &val, FaultEvent &ev)
{
    return std::visit(
        [&](auto m) -> std::string {
            using T = std::remove_cvref_t<decltype(ev.*m)>;
            if constexpr (std::is_same_v<T, double>) {
                return strictDouble(val, ev.*m) ? "" : "a finite number";
            } else if constexpr (std::is_same_v<T, int>) {
                return strictInt(val, ev.*m) ? "" : "a whole number";
            } else if constexpr (std::is_same_v<T, std::uint32_t>) {
                return strictU32(val, ev.*m) ? "" : "a whole number >= 0";
            } else if constexpr (std::is_same_v<T, FaultEvent::CrashMode>) {
                auto it = std::find(std::begin(kModes), std::end(kModes),
                                    val);
                if (it == std::end(kModes))
                    return "one of " +
                           joined(kModes, [](const char *s) { return s; });
                ev.*m = static_cast<T>(it - std::begin(kModes));
                return "";
            } else {
                if (!validGroupToken(val))
                    return "a group token: clients, lbs, ms, lb<k>, m<s>";
                ev.*m = val;
                return "";
            }
        },
        p.member);
}

/** @p p's member of @p ev in the grammar's text form. */
std::string
valueStr(const Param &p, const FaultEvent &ev)
{
    return std::visit(
        [&ev](auto m) -> std::string {
            using T = std::remove_cvref_t<decltype(ev.*m)>;
            if constexpr (std::is_same_v<T, double>)
                return numStr(ev.*m);
            else if constexpr (std::is_same_v<T, FaultEvent::CrashMode>)
                return kModes[static_cast<int>(ev.*m)];
            else if constexpr (std::is_same_v<T, std::string>)
                return ev.*m;
            else
                return std::to_string(ev.*m);
        },
        p.member);
}

/** Why @p ev's values are out of range for its kind; "" if they are
 *  not. */
std::string
rangeError(const FaultEvent &ev)
{
    std::string why;   // the first requirement that fails
    auto need = [&why](bool ok, const Param &p, const std::string &want) {
        if (!ok && why.empty())
            why = std::string(p.key) + " must be " + want;
    };
    switch (ev.kind) {
      case FaultKind::kLossBurst:
      case FaultKind::kReorder:
      case FaultKind::kDuplicate:
        need(ev.rate > 0.0 && ev.rate < 1.0, kRate, "in (0, 1)");
        break;
      case FaultKind::kSynFlood:
        need(ev.rate > 0.0, kRate, "> 0 (SYNs per second)");
        break;
      case FaultKind::kBackendSlow:
        need(ev.factor > 1.0, kFactor, "> 1");
        break;
      case FaultKind::kBackendDown:
        break;
      case FaultKind::kAtrShrink:
        need(ev.tableSize != 0 && (ev.tableSize & (ev.tableSize - 1)) == 0,
             kSize, "a power of two");
        break;
      case FaultKind::kMachineCrash:
      case FaultKind::kLbCrash:
        need(ev.target >= 0, kTarget, ">= 0 (machine index)");
        break;
      case FaultKind::kRollingRestart:
        need(ev.drainMsec > 0.0, kDrain, "> 0");
        need(ev.downMsec > 0.0, kDown, "> 0");
        break;
      case FaultKind::kMachineDegrade:
        need(ev.target >= 0, kTarget, ">= 0 (machine index)");
        need(ev.factor >= 1.0, kFactor, ">= 1 (CPU slowdown multiplier)");
        need(ev.rate >= 0.0 && ev.rate < 1.0, kRate,
             "in [0, 1) (NIC egress loss)");
        need(ev.jitterUsec >= 0.0, kJitter, ">= 0");
        need(ev.flapMsec >= 0.0, kFlap, ">= 0");
        need(ev.factor > 1.0 || ev.rate > 0.0 || ev.jitterUsec > 0.0,
             kFactor, std::string("> 1, or ") + kRate.key + " or " +
                          kJitter.key + " > 0 (else the degrade is a "
                          "no-op)");
        break;
      case FaultKind::kNetPartition:
        need(ev.partA != ev.partB, kGroupB,
             std::string("a group other than ") + kGroupA.key);
        break;
    }
    return why;
}

} // anonymous namespace

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
    std::istringstream events(text);
    for (std::string raw; std::getline(events, raw, ';');) {
        std::string item = trim(raw);
        if (item.empty())
            continue;

        // Plan-level seed: a bare "seed=N" element.
        if (item.compare(0, kSeedKey.size(), kSeedKey) == 0) {
            if (!strictU64(trim(item.substr(kSeedKey.size())), plan.seed)) {
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
        std::string kind = trim(item.substr(0, at));
        const KindSpec *spec = nullptr;
        for (const KindSpec &k : kKinds)
            if (kind == k.name)
                spec = &k;
        if (!spec) {
            err = "unknown fault kind '" + kind + "'; valid kinds: " +
                  joined(kKinds, [](const KindSpec &k) { return k.name; });
            return false;
        }
        FaultEvent ev;
        ev.kind = spec->kind;

        std::string rest = item.substr(at + 1);
        std::size_t colon = rest.find(':');
        std::string window = trim(colon == std::string::npos
                                      ? rest
                                      : rest.substr(0, colon));
        std::size_t dash = window.find('-');
        if (dash == std::string::npos ||
            !strictDouble(trim(window.substr(0, dash)), ev.startSec) ||
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
            std::istringstream params(rest.substr(colon + 1));
            for (std::string p; std::getline(params, p, ',');) {
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
                const Param *param = nullptr;
                for (const Param *cand : spec->params)
                    if (key == cand->key)
                        param = cand;
                if (!param) {
                    err = "fault event '" + item + "': " + spec->name +
                          " takes no parameter '" + key + "' (valid: " +
                          joined(spec->params,
                                 [](const Param *q) { return q->key; }) +
                          ")";
                    return false;
                }
                std::string want = assign(*param, val, ev);
                if (!want.empty()) {
                    err = "fault event '" + item + "': bad value '" +
                          val + "' for '" + key + "' (want " + want + ")";
                    return false;
                }
            }
        }

        // Per-kind validity so armed plans cannot misbehave silently.
        std::string why = rangeError(ev);
        if (!why.empty()) {
            err = "fault event '" + item + "': " + why;
            return false;
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
        const KindSpec &spec = kKinds[static_cast<std::size_t>(e.kind)];
        s += spec.name;
        s += '@';
        s += numStr(e.startSec);
        s += '-';
        s += numStr(e.endSec);
        char sep = ':';
        for (const Param *p : spec.params) {
            s += sep;
            s += p->key;
            s += '=';
            s += valueStr(*p, e);
            sep = ',';
        }
    }
    if (plan.seed != FaultPlan{}.seed) {
        s += ';';
        s += kSeedKey;
        s += std::to_string(plan.seed);
    }
    return s;
}

} // namespace fsim
