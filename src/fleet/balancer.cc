#include "fleet/balancer.hh"

#include <algorithm>
#include <cmath>

#include "check/fingerprint.hh"
#include "sim/logging.hh"
#include "trace/fleet_trace.hh"
#include "trace/incident_log.hh"

namespace fsim
{

namespace
{

/** NAT ephemeral ports live above the well-known + probe ranges. */
constexpr std::uint32_t kNatBase = 2048;
constexpr std::uint32_t kNatSpan = 65536 - kNatBase;
/** Probe source ports: a dedicated low slice, never NAT-allocated. */
constexpr std::uint32_t kProbeBase = 100;
constexpr std::uint32_t kProbeSpan = 900;

/** Service port clients address on every VIP. */
constexpr Port kVipPort = 80;
/** Consistent-hash ring entries per target. */
constexpr int kVnodes = 64;
/** Bounded-load cap factor c: a target holding more than
 *  ceil(c * average) flows is passed over on the first steering pass. */
constexpr double kBoundedLoadFactor = 2.0;
/** Binary health: consecutive failed probes that eject a target, and
 *  consecutive answered probes that readmit it. */
constexpr int kFallThreshold = 2;
constexpr int kRiseThreshold = 1;
/** Idle-flow GC sweep period. */
constexpr Tick kGcPeriod = ticksFromMsec(10.0);

} // anonymous namespace

const char *
L4Balancer::policyName(Policy p)
{
    return p == Policy::kConsistentHash ? "chash" : "rr";
}

const char *
L4Balancer::healthModeName(HealthMode m)
{
    return m == HealthMode::kBinary ? "binary" : "score";
}

bool
L4Balancer::policyFromName(const std::string &s, Policy &out)
{
    if (s == "chash") {
        out = Policy::kConsistentHash;
        return true;
    }
    if (s == "rr") {
        out = Policy::kRoundRobin;
        return true;
    }
    return false;
}

std::uint64_t
L4Balancer::mix64(std::uint64_t x)
{
    // splitmix64 finalizer: the ring/steering hash.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

L4Balancer::L4Balancer(EventQueue &eq, Wire &fabric, const Config &cfg)
    : eq_(eq), fabric_(fabric), cfg_(cfg),
      natOwner_(kNatBase + kNatSpan, 0)
{
    fsim_assert(cfg_.vip != 0 && cfg_.natIp != 0);
    fsim_assert(cfg_.vip != cfg_.natIp);
    // Config validation is user-facing (fsim_fatal, not panic): these
    // are the PR 8 calibration gotchas promoted to hard errors.
    if (cfg_.maxFlows == 0 || cfg_.maxFlows >= kNatSpan)
        fsim_fatal(
            "L4Balancer: maxFlows=%zu is outside [1, %u): every flow "
            "pins one NAT source port and only ports %u-65535 are "
            "NAT-allocatable. Size the table to at least "
            "offered_rate x client_give_up / balancers, capped at %u.",
            cfg_.maxFlows, kNatSpan, kNatBase, kNatSpan - 1);
    if (cfg_.probeInterval > 0 &&
        (cfg_.probeTimeout == 0 ||
         cfg_.probeTimeout >= cfg_.probeInterval))
        fsim_fatal(
            "L4Balancer: probeTimeout=%llu ticks must sit in "
            "(0, probeInterval=%llu): each probe must resolve before "
            "the next round is scheduled or health decisions lag a "
            "full round and saturated-but-alive targets flap. Raise "
            "probeInterval or lower probeTimeout (and leave probe "
            "grace for handshake replies queued behind softirq work).",
            static_cast<unsigned long long>(cfg_.probeTimeout),
            static_cast<unsigned long long>(cfg_.probeInterval));
    if (cfg_.healthMode == HealthMode::kScore &&
        cfg_.probeInterval == 0)
        fsim_fatal(
            "L4Balancer: healthMode=score requires probing "
            "(probeInterval > 0): the score is built from probe RTT "
            "evidence.");
    vips_.push_back(cfg_.vip);
}

void
L4Balancer::addTarget(const TargetSpec &spec)
{
    fsim_assert(!started_);
    fsim_assert(!spec.addrs.empty());
    Target t;
    t.spec = spec;
    targets_.push_back(std::move(t));
}

void
L4Balancer::attachHandlers()
{
    for (IpAddr vip : vips_)
        fabric_.attach(vip, [this](const Packet &pkt) { onVip(pkt); });
    fabric_.attach(cfg_.natIp,
                   [this](const Packet &pkt) { onNat(pkt); });
}

void
L4Balancer::rebuildRing()
{
    ring_.clear();
    if (cfg_.policy != Policy::kConsistentHash)
        return;
    for (int m = 0; m < static_cast<int>(targets_.size()); ++m) {
        for (int r = 0; r < kVnodes; ++r) {
            RingEntry e;
            e.hash = mix64(cfg_.seed ^
                           (static_cast<std::uint64_t>(m) * 0x9e3779b9ULL +
                            static_cast<std::uint64_t>(r) * 0x85ebca6bULL +
                            1));
            e.machine = m;
            ring_.push_back(e);
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const RingEntry &a, const RingEntry &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.machine < b.machine;
              });
}

void
L4Balancer::start()
{
    fsim_assert(!started_);
    fsim_assert(!targets_.empty());
    started_ = true;
    rebuildRing();
    if (cfg_.probeInterval > 0) {
        fsim_assert(cfg_.probeTimeout > 0 &&
                    cfg_.probeTimeout < cfg_.probeInterval);
        if (scoreMode())
            scorer_ = HealthScorer(cfg_.score,
                                   static_cast<int>(targets_.size()),
                                   cfg_.probeTimeout);
        eq_.scheduleIn(cfg_.probeInterval, [this] { probeRound(); });
    }
    if (cfg_.flowIdleTimeout > 0)
        eq_.scheduleIn(kGcPeriod, [this] { gcSweep(); });
}

void
L4Balancer::setDown(bool down)
{
    down_ = down;
}

void
L4Balancer::startDrain(int m)
{
    Target &t = targets_.at(m);
    if (t.state == TargetState::kDraining)
        return;
    t.state = TargetState::kDraining;
    ++drainsStarted_;
}

std::uint64_t
L4Balancer::activeFlows(int m) const
{
    return targets_.at(m).active;
}

std::uint64_t
L4Balancer::finishDrain(int m)
{
    Target &t = targets_.at(m);
    fsim_assert(t.state == TargetState::kDraining);
    const std::uint64_t remaining = t.active;
    if (remaining == 0)
        ++drainsCompleted_;
    undrainedFlows_ += remaining;
    // The caller stops the machine in the same event, so the brief
    // kHealthy state never steers a flow.
    t.state = TargetState::kHealthy;
    return remaining;
}

void
L4Balancer::noteStopped(int m)
{
    Target &t = targets_.at(m);
    t.adminDown = true;
    t.state = TargetState::kDown;
    t.consecOks = 0;
    t.consecFails = 0;
}

void
L4Balancer::noteRestarted(int m)
{
    Target &t = targets_.at(m);
    t.adminDown = false;
    // Stays kDown until kRiseThreshold probe successes readmit it.
    t.consecOks = 0;
    t.consecFails = 0;
}

bool
L4Balancer::healthy(int m) const
{
    return targets_.at(m).state == TargetState::kHealthy;
}

void
L4Balancer::adoptVip(IpAddr vip)
{
    for (IpAddr v : vips_)
        if (v == vip)
            return;
    vips_.push_back(vip);
    fabric_.attach(vip, [this](const Packet &pkt) { onVip(pkt); });
}

Port
L4Balancer::allocNatPort()
{
    for (std::uint32_t tries = 0; tries < kNatSpan; ++tries) {
        const std::uint32_t p = kNatBase + natCursor_;
        natCursor_ = (natCursor_ + 1) % kNatSpan;
        if (natOwner_[p] == 0)
            return static_cast<Port>(p);
    }
    return 0;
}

int
L4Balancer::pickMachine(std::uint64_t key)
{
    int healthyCount = 0;
    for (const Target &t : targets_)
        if (t.state == TargetState::kHealthy)
            ++healthyCount;
    if (healthyCount == 0)
        return -1;

    const auto cap = static_cast<std::uint64_t>(
        std::ceil(kBoundedLoadFactor *
                  static_cast<double>(flows_.size() + 1) / healthyCount));

    const int n = static_cast<int>(targets_.size());
    // Slow-start readmission: a freshly readmitted target accepts only
    // a deterministic hash-fraction of first-pass keys until its ramp
    // completes (the second pass ignores the ramp, so capacity is never
    // stranded). Keyed per (flow, target) so the accepted subset is
    // stable across rounds and both balancers agree.
    auto rampSkip = [this](std::uint64_t key, int m) {
        if (!scoreMode() || !started_)
            return false;
        const double share = scorer_.steerShare(m);
        if (share >= 1.0)
            return false;
        const std::uint64_t h = mix64(
            key ^ cfg_.seed ^
            (0x5a10c0deULL + static_cast<std::uint64_t>(m) *
                                 0x9e3779b97f4a7c15ULL));
        const double u = static_cast<double>(h >> 11) *
                         (1.0 / 9007199254740992.0);
        if (u < share)
            return false;
        ++rampSkips_;
        return true;
    };
    // First pass skips overfull and pressure-critical targets; with
    // factor >= 1 the cap exceeds the healthy average, so some healthy
    // target is always under it — but a pressure veto can exclude them
    // all, hence the second pass.
    for (int pass = 0; pass < 2; ++pass) {
        if (cfg_.policy == Policy::kConsistentHash) {
            const std::uint64_t h = mix64(key ^ cfg_.seed);
            auto it = std::lower_bound(
                ring_.begin(), ring_.end(), h,
                [](const RingEntry &e, std::uint64_t v) {
                    return e.hash < v;
                });
            const std::size_t startIdx =
                it == ring_.end() ? 0 : (it - ring_.begin());
            for (std::size_t i = 0; i < ring_.size(); ++i) {
                const int m =
                    ring_[(startIdx + i) % ring_.size()].machine;
                const Target &t = targets_[m];
                if (t.state != TargetState::kHealthy)
                    continue;
                if (pass == 0 && t.active + 1 > cap) {
                    ++boundedLoadFallbacks_;
                    continue;
                }
                if (pass == 0 && pressureFn_ && pressureFn_(m) >= 2) {
                    ++pressureAvoids_;
                    continue;
                }
                if (pass == 0 && rampSkip(key, m))
                    continue;
                return m;
            }
        } else {
            for (int i = 0; i < n; ++i) {
                const int m = (rrCursor_ + i) % n;
                const Target &t = targets_[m];
                if (t.state != TargetState::kHealthy)
                    continue;
                if (pass == 0 && t.active + 1 > cap) {
                    ++boundedLoadFallbacks_;
                    continue;
                }
                if (pass == 0 && pressureFn_ && pressureFn_(m) >= 2) {
                    ++pressureAvoids_;
                    continue;
                }
                if (pass == 0 && rampSkip(key, m))
                    continue;
                rrCursor_ = (m + 1) % n;
                return m;
            }
        }
    }
    return -1;
}

void
L4Balancer::sendRstToClient(const Packet &cause)
{
    Packet rst;
    rst.tuple = cause.tuple.reversed();
    rst.flags = kRst;
    rst.connId = cause.connId;
    fabric_.transmit(rst, eq_.now() + kForwardDelay);
}

void
L4Balancer::retire(std::uint64_t key)
{
    const Flow *f = flows_.find(key);
    fsim_assert(f);
    fsim_assert(natOwner_[f->natPort] == key);
    natOwner_[f->natPort] = 0;
    fsim_assert(targets_[f->machine].active > 0);
    --targets_[f->machine].active;
    flows_.erase(key);
    ++flowsRetired_;
}

void
L4Balancer::forwardC2s(Flow &f, const Packet &pkt)
{
    Packet out = pkt;
    out.tuple.saddr = cfg_.natIp;
    out.tuple.sport = f.natPort;
    out.tuple.daddr = f.serverAddr;
    out.tuple.dport = f.machine >= 0
                          ? targets_[f.machine].spec.port
                          : Port{80};
    // Restamp from the flow entry: the trace context rides the NAT
    // state, not just the packet copy, so the rewrite can never drop it.
    out.traceId = f.traceId;
    fabric_.transmit(out, eq_.now() + kForwardDelay);
    ++forwardedC2s_;
    if (traceLog_)
        traceLog_->lbForward(f.traceId);
    if (scoreMode() && pkt.has(kSyn) && !pkt.has(kAck) && f.machine >= 0)
        scorer_.noteRequestSent(f.machine);
}

void
L4Balancer::forwardS2c(Flow &f, const Packet &pkt)
{
    Packet out = pkt;
    out.tuple.saddr = f.vip;
    out.tuple.sport = kVipPort;
    out.tuple.daddr = f.clientIp;
    out.tuple.dport = f.clientPort;
    out.traceId = f.traceId;
    fabric_.transmit(out, eq_.now() + kForwardDelay);
    ++forwardedS2c_;
    if (traceLog_)
        traceLog_->lbForward(f.traceId);
    if (scoreMode() && pkt.has(kSyn) && pkt.has(kAck) && f.machine >= 0)
        scorer_.noteRequestAcked(f.machine);
}

void
L4Balancer::onVip(const Packet &pkt)
{
    if (down_) {
        ++downDrops_;
        return;
    }
    const std::uint64_t key = flowKey(pkt.tuple.saddr, pkt.tuple.sport);
    if (Flow *fp = flows_.find(key)) {
        Flow &f = *fp;
        const bool freshSyn = pkt.has(kSyn) && !pkt.has(kAck);
        if (freshSyn && (f.finC2s || f.finS2c)) {
            // The old flow finished (or half-finished) and the client
            // recycled the tuple: retire and fall through to create.
            ++tupleReuse_;
            retire(key);
        } else {
            if (freshSyn && pkt.traceId != 0 &&
                pkt.traceId != f.traceId) {
                // Tuple recycled while the old flow never observed its
                // teardown (FINs lost on the wire, or the client gave
                // up without one). The new connection legitimately
                // rides the existing NAT state, but the trace context
                // must follow the new request — adopting the SYN's id
                // keeps the forwardC2s restamp from branding every
                // downstream span with the dead predecessor's trace.
                ++tupleReuse_;
                f.traceId = pkt.traceId;
                if (traceLog_)
                    traceLog_->lbIngress(f.traceId, eq_.now(), lbId_,
                                         f.machine);
            }
            f.lastActivity = eq_.now();
            if (pkt.has(kFin))
                f.finC2s = true;
            const bool rst = pkt.has(kRst);
            forwardC2s(f, pkt);
            // Teardown completes with a pure ACK after both FINs (or
            // an RST any time): drop the flow once it's forwarded.
            const bool pureAck = pkt.flags == kAck && pkt.payload == 0;
            if (rst || (pureAck && f.finC2s && f.finS2c))
                retire(key);
            return;
        }
    }

    // No flow. Only a fresh SYN may create one.
    if (!(pkt.has(kSyn) && !pkt.has(kAck))) {
        if (!pkt.has(kRst)) {
            ++natRsts_;
            sendRstToClient(pkt);
        }
        return;
    }
    if (flows_.size() >= cfg_.maxFlows) {
        ++shedCapacity_;
        sendRstToClient(pkt);
        return;
    }
    const int m = pickMachine(key);
    if (m < 0) {
        ++shedNoBackend_;
        sendRstToClient(pkt);
        return;
    }
    const Port natPort = allocNatPort();
    if (natPort == 0) {
        ++shedCapacity_;
        sendRstToClient(pkt);
        return;
    }

    Flow f;
    f.clientIp = pkt.tuple.saddr;
    f.clientPort = pkt.tuple.sport;
    f.vip = pkt.tuple.daddr;
    f.machine = m;
    const std::vector<IpAddr> &addrs = targets_[m].spec.addrs;
    f.serverAddr = addrs[natPort % addrs.size()];
    f.natPort = natPort;
    f.lastActivity = eq_.now();
    f.traceId = pkt.traceId;
    natOwner_[natPort] = key;
    ++targets_[m].active;
    ++flowsCreated_;
    if (traceLog_)
        traceLog_->lbIngress(f.traceId, eq_.now(), lbId_, m);
    Flow &stored = *flows_.insert(key, f).first;
    if (flows_.size() > flowsActivePeak_)
        flowsActivePeak_ = flows_.size();
    forwardC2s(stored, pkt);
}

void
L4Balancer::onNat(const Packet &pkt)
{
    if (down_) {
        ++downDrops_;
        return;
    }
    const Port dport = pkt.tuple.dport;

    // Probe replies come back on the dedicated low-port slice.
    if (dport >= kProbeBase && dport < kProbeBase + kProbeSpan) {
        const Probe *p = probes_.find(dport);
        if (!p)
            return;     // late reply; the deadline already decided
        const int m = p->machine;
        const Tick rtt = eq_.now() - p->sent;
        probes_.erase(dport);
        if (pkt.has(kSyn) && pkt.has(kAck))
            probeOk(m, rtt);
        else
            probeFail(m);
        return;
    }

    const std::uint64_t key = natOwner_[dport];
    if (key == 0)
        return;     // stale reply to a retired flow; drop silently
    Flow *fp = flows_.find(key);
    fsim_assert(fp);
    Flow &f = *fp;
    f.lastActivity = eq_.now();
    if (pkt.has(kFin))
        f.finS2c = true;
    const bool rst = pkt.has(kRst);
    forwardS2c(f, pkt);
    const bool pureAck = pkt.flags == kAck && pkt.payload == 0;
    if (rst || (pureAck && f.finC2s && f.finS2c))
        retire(key);
}

void
L4Balancer::probeRound()
{
    if (!down_) {
        // probeTimeout < probeInterval, so every probe of the previous
        // round has resolved by now: the evidence window is complete.
        if (scoreMode())
            scoreRound();
        for (int m = 0; m < static_cast<int>(targets_.size()); ++m)
            sendProbe(m);
    }
    eq_.scheduleIn(cfg_.probeInterval, [this] { probeRound(); });
}

void
L4Balancer::scoreRound()
{
    const int n = static_cast<int>(targets_.size());
    scorer_.setRoundTick(eq_.now());
    std::vector<bool> healthy(n, false), candidate(n, false);
    for (int m = 0; m < n; ++m) {
        const Target &t = targets_[m];
        healthy[m] = t.state == TargetState::kHealthy;
        candidate[m] = t.state == TargetState::kDown && !t.adminDown;
    }
    scorer_.evaluateRound(healthy, candidate, verdicts_);

    int downCount = 0;
    for (const Target &t : targets_)
        if (t.state != TargetState::kHealthy)
            ++downCount;

    for (int m = 0; m < n; ++m) {
        Target &t = targets_[m];
        const HealthScorer::Verdict &v = verdicts_[m];
        if (v.ejectable && t.state == TargetState::kHealthy) {
            // Cap: never let peer-relative ejection empty the fleet. A
            // correlated slowdown (which ejecting cannot fix) stops at
            // the fraction; the worst offenders went first because the
            // eviction order is target order and streaks mature first
            // on the machines that turned gray first.
            const double after =
                static_cast<double>(downCount + 1) /
                static_cast<double>(n);
            if (after > cfg_.score.maxEjectFraction) {
                ++ejectionsCapped_;
                continue;
            }
            t.state = TargetState::kDown;
            t.consecFails = 0;
            t.consecOks = 0;
            ++downCount;
            ++ejections_;
            ++scoreEjections_;
            scorer_.noteEjected(m);
            if (incidents_) {
                incidents_->noteDetect(m, scorer_.detectTick(m));
                incidents_->noteEject(m, eq_.now());
            }
        } else if (v.readmittable && t.state == TargetState::kDown &&
                   !t.adminDown) {
            t.state = TargetState::kHealthy;
            t.consecFails = 0;
            t.consecOks = 0;
            --downCount;
            ++readmissions_;
            scorer_.noteReadmitted(m);
            if (incidents_)
                incidents_->noteRecover(m, eq_.now());
        }
    }
}

void
L4Balancer::sendProbe(int m)
{
    const Port pp = static_cast<Port>(
        kProbeBase + (probeSeq_ % kProbeSpan));
    ++probeSeq_;
    if (!probes_.insert(pp, Probe{m, eq_.now()}).second)
        return;     // slice wrapped onto an unanswered probe; skip
    ++probesSent_;

    const Target &t = targets_[m];
    Packet syn;
    syn.tuple.saddr = cfg_.natIp;
    syn.tuple.sport = pp;
    syn.tuple.daddr = t.spec.addrs[probeSeq_ % t.spec.addrs.size()];
    syn.tuple.dport = t.spec.port;
    syn.flags = kSyn;
    syn.prio = true;    // spared by the server's overload defenses
    fabric_.transmit(syn, eq_.now());

    eq_.scheduleIn(cfg_.probeTimeout, [this, pp] {
        const Probe *p = probes_.find(pp);
        if (!p)
            return;     // answered in time
        const int m = p->machine;
        probes_.erase(pp);
        if (!down_)
            probeFail(m);
    });
}

void
L4Balancer::probeOk(int m, Tick rtt)
{
    if (scoreMode()) {
        // State flips happen in scoreRound(); here only evidence lands.
        scorer_.noteProbeRtt(m, rtt);
        return;
    }
    Target &t = targets_[m];
    t.consecFails = 0;
    if (t.state == TargetState::kDown && !t.adminDown) {
        if (++t.consecOks >= kRiseThreshold) {
            t.state = TargetState::kHealthy;
            t.consecOks = 0;
            ++readmissions_;
            if (incidents_)
                incidents_->noteRecover(m, eq_.now());
        }
    } else {
        t.consecOks = 0;
    }
}

void
L4Balancer::probeFail(int m)
{
    ++probeFailures_;
    if (scoreMode()) {
        scorer_.noteProbeTimeout(m);
        return;
    }
    Target &t = targets_[m];
    t.consecOks = 0;
    if (t.state == TargetState::kHealthy) {
        if (t.consecFails == 0)
            t.failStreakStart = eq_.now();
        if (++t.consecFails >= kFallThreshold) {
            t.state = TargetState::kDown;
            t.consecFails = 0;
            ++ejections_;
            if (incidents_) {
                incidents_->noteDetect(m, t.failStreakStart);
                incidents_->noteEject(m, eq_.now());
            }
        }
    }
}

void
L4Balancer::gcSweep()
{
    // Collect-then-sort keeps retirement order independent of the flow
    // table's slot order.
    std::vector<std::uint64_t> &stale = gcStale_;
    stale.clear();
    flows_.forEach([&](std::uint64_t key, const Flow &f) {
        if (f.lastActivity + cfg_.flowIdleTimeout <= eq_.now())
            stale.push_back(key);
    });
    std::sort(stale.begin(), stale.end());
    for (std::uint64_t key : stale) {
        retire(key);
        ++idleRetired_;
    }
    eq_.scheduleIn(kGcPeriod, [this] { gcSweep(); });
}

std::uint64_t
L4Balancer::counterHash() const
{
    Fingerprint fp;
    fp.mix(flowsCreated_);
    fp.mix(flowsRetired_);
    fp.mix(flows_.size());
    fp.mix(flowsActivePeak_);
    fp.mix(shedNoBackend_);
    fp.mix(shedCapacity_);
    fp.mix(natRsts_);
    fp.mix(tupleReuse_);
    fp.mix(boundedLoadFallbacks_);
    fp.mix(pressureAvoids_);
    fp.mix(probesSent_);
    fp.mix(probeFailures_);
    fp.mix(ejections_);
    fp.mix(readmissions_);
    fp.mix(drainsStarted_);
    fp.mix(drainsCompleted_);
    fp.mix(undrainedFlows_);
    fp.mix(idleRetired_);
    fp.mix(forwardedC2s_);
    fp.mix(forwardedS2c_);
    fp.mix(downDrops_);
    fp.mix(scoreEjections_);
    fp.mix(rampSkips_);
    fp.mix(ejectionsCapped_);
    if (scoreMode() && started_)
        fp.mix(scorer_.stateHash());
    for (const Target &t : targets_) {
        fp.mix(static_cast<std::uint64_t>(t.state));
        fp.mix(t.active);
    }
    return fp.value();
}

} // namespace fsim
