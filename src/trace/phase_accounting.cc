#include "trace/phase_accounting.hh"

#include <string>

#include "sim/logging.hh"

namespace fsim
{

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::kApp:        return "app";
      case Phase::kSyscall:    return "syscall";
      case Phase::kSoftirq:    return "softirq";
      case Phase::kLockSpin:   return "lock-spin";
      case Phase::kCacheStall: return "cache-stall";
      case Phase::kIdle:       return "idle";
    }
    return "?";
}

const char *
traceQueueName(TraceQueueId q)
{
    switch (q) {
      case TraceQueueId::kAcceptShared:    return "accept-shared";
      case TraceQueueId::kAcceptLocal:     return "accept-local";
      case TraceQueueId::kAcceptReuseport: return "accept-reuseport";
      case TraceQueueId::kSoftirqBacklog:  return "softirq-backlog";
      case TraceQueueId::kProcessBacklog:  return "process-backlog";
    }
    return "?";
}

PhaseSnapshot
phaseDelta(const PhaseSnapshot &before, const PhaseSnapshot &after)
{
    PhaseSnapshot d = after;
    for (std::size_t c = 0; c < d.perCore.size(); ++c) {
        if (c >= before.perCore.size())
            continue;
        for (int p = 0; p < kNumChargedPhases; ++p) {
            std::uint64_t b = before.perCore[c][p];
            d.perCore[c][p] -= d.perCore[c][p] > b ? b
                                                   : d.perCore[c][p];
        }
    }
    for (auto &kv : d.folded) {
        auto it = before.folded.find(kv.first);
        if (it != before.folded.end())
            kv.second -= kv.second > it->second ? it->second : kv.second;
    }
    d.untracked -= d.untracked > before.untracked ? before.untracked
                                                  : d.untracked;
    return d;
}

std::string
decodeFoldedKey(std::uint64_t key)
{
    // The key packs one phase per 4 bits, innermost in the low bits;
    // unpack to root-first order.
    Phase levels[16];
    int depth = 0;
    while (key != 0 && depth < 16) {
        levels[depth++] = static_cast<Phase>((key & 0xf) - 1);
        key >>= 4;
    }
    std::string out;
    for (int i = depth - 1; i >= 0; --i) {
        if (!out.empty())
            out += ';';
        out += phaseName(levels[i]);
    }
    return out;
}

PhaseAccounting::PhaseAccounting(int n_cores)
    : stacks_(n_cores), counts_(n_cores), folded_(1)
{
    fsim_assert(n_cores > 0);
    for (auto &c : counts_)
        c.fill(0);
    for (auto &s : stacks_)
        s.reserve(8);
}

void
PhaseAccounting::push(CoreId c, Phase p, Tick t)
{
    fsim_assert(p != Phase::kIdle);
    std::vector<Frame> &st = stacks_.at(c);
    Frame f;
    f.phase = p;
    f.begin = t;
    f.node = childNode(st.empty() ? 0 : st.back().node, p);
    st.push_back(f);
}

std::uint32_t
PhaseAccounting::childNode(std::uint32_t parent, Phase p)
{
    const int idx = static_cast<int>(p);
    std::uint32_t n = folded_[parent].child[idx];
    if (n == FoldedNode::kNone) {
        n = static_cast<std::uint32_t>(folded_.size());
        FoldedNode node;
        node.key = foldedKey(folded_[parent].key, p);
        folded_.push_back(node);
        folded_[parent].child[idx] = n;
    }
    return n;
}

void
PhaseAccounting::pop(CoreId c, Tick t)
{
    std::vector<Frame> &st = stacks_.at(c);
    fsim_assert(!st.empty());
    Frame f = st.back();
    st.pop_back();

    Tick elapsed = t > f.begin ? t - f.begin : 0;
    // Nested charges are always contained in the frame's span (every
    // charged cost also advances the caller's tick cursor), but be
    // defensive against rounding: never let self time go negative and
    // never report less total than the children already charged.
    if (elapsed < f.child)
        elapsed = f.child;
    Tick self = elapsed - f.child;
    if (self > 0) {
        counts_[c][static_cast<int>(f.phase)] += self;
        folded_[f.node].cycles += self;
    }
    if (!st.empty())
        st.back().child += elapsed;
}

void
PhaseAccounting::charge(CoreId c, Phase p, Tick cycles)
{
    if (cycles == 0)
        return;
    std::vector<Frame> &st = stacks_.at(c);
    if (st.empty()) {
        // Setup-phase work outside any task: not part of any core's
        // busy time, so it must not skew the per-core breakdowns.
        untracked_ += cycles;
        return;
    }
    counts_[c][static_cast<int>(p)] += cycles;
    folded_[childNode(st.back().node, p)].cycles += cycles;
    st.back().child += cycles;
}

PhaseSnapshot
PhaseAccounting::snapshot() const
{
    PhaseSnapshot s;
    s.perCore = counts_;
    // Only charged stacks appear; paths deeper than the key's 16 levels
    // share a key and sum.
    for (const FoldedNode &n : folded_)
        if (n.cycles > 0)
            s.folded[n.key] += n.cycles;
    s.untracked = untracked_;
    return s;
}

} // namespace fsim
