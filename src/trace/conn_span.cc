#include "trace/conn_span.hh"

#include <algorithm>

#include "trace/fleet_trace.hh"
#include "trace/trace_scope.hh"

namespace fsim
{

const char *
connStageName(ConnStage s)
{
    switch (s) {
      case ConnStage::kSynRx: return "syn-rx";
      case ConnStage::kHandshake: return "handshake";
      case ConnStage::kSoftirqRx: return "softirq-rx";
      case ConnStage::kAcceptQueue: return "accept-queue";
      case ConnStage::kAccept: return "accept";
      case ConnStage::kConnect: return "connect";
      case ConnStage::kDispatch: return "dispatch";
      case ConnStage::kAppRead: return "app-read";
      case ConnStage::kAppProcess: return "app-process";
      case ConnStage::kAppWrite: return "app-write";
      case ConnStage::kTeardown: return "teardown";
      case ConnStage::kVfs: return "vfs";
      case ConnStage::kLockWait: return "lock-wait";
      case ConnStage::kCoreTransfer: return "core-transfer";
    }
    return "?";
}

ConnStageKind
connStageKind(ConnStage s)
{
    switch (s) {
      case ConnStage::kAcceptQueue:
      case ConnStage::kDispatch:
      case ConnStage::kCoreTransfer:
        return ConnStageKind::kWait;
      case ConnStage::kVfs:
      case ConnStage::kLockWait:
        return ConnStageKind::kSub;
      default:
        return ConnStageKind::kExec;
    }
}

Tick
ConnSpanTrace::stageTicks(ConnStage s) const
{
    Tick total = 0;
    for (const ConnSpan &sp : spans)
        if (sp.stage == s)
            total += sp.end - sp.begin;
    return total;
}

Tick
ConnSpanTrace::serviceLatency() const
{
    Tick last_write = 0;
    Tick last_exec = openTick;
    for (const ConnSpan &sp : spans) {
        if (sp.stage == ConnStage::kAppWrite)
            last_write = std::max(last_write, sp.end);
        if (connStageKind(sp.stage) == ConnStageKind::kExec)
            last_exec = std::max(last_exec, sp.end);
    }
    const Tick done = last_write ? last_write : last_exec;
    return done > openTick ? done - openTick : 0;
}

ConnSpanTrace
ConnSpanLog::LiveTrace::view() const
{
    ConnSpanTrace tr = head;
    tr.spans = spans;
    return tr;
}

ConnSpanLog::LiveTrace *
ConnSpanLog::findLive(std::uint64_t conn_id)
{
    const std::uint32_t *slot = live_.find(conn_id);
    return slot ? &slots_[*slot] : nullptr;
}

void
ConnSpanLog::open(std::uint64_t conn_id, Tick t, bool passive)
{
    if (!enabled_)
        return;
    LiveTrace *lt = findLive(conn_id);
    if (!lt) {
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
            ++allocations_;
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        live_.insert(conn_id, slot);
        lt = &slots_[slot];
        lt->head = ConnSpanTrace{};
    }
    lt->head.connId = conn_id;
    lt->head.openTick = t;
    lt->head.passive = passive;
    ++opened_;
}

void
ConnSpanLog::add(std::uint64_t conn_id, ConnStage stage, CoreId core,
                 Tick begin, Tick end, std::uint32_t aux)
{
    if (!enabled_)
        return;
    LiveTrace *lt = findLive(conn_id);
    if (!lt)
        return; // stray work after teardown (e.g. duplicate packets)
    if (end < begin)
        end = begin;
    if (connStageKind(stage) == ConnStageKind::kExec) {
        if (execTicksPerCore_.size() <= static_cast<std::size_t>(core))
            execTicksPerCore_.resize(core + 1, 0);
        execTicksPerCore_[core] += end - begin;
    }
    if (lt->spans.size() >= kMaxSpansPerConn) {
        ++spansDropped_;
        return;
    }
    ConnSpan sp;
    sp.begin = begin;
    sp.end = end;
    sp.aux = aux;
    sp.core = static_cast<std::int16_t>(core);
    sp.stage = stage;
    if (lt->spans.size() == lt->spans.capacity())
        ++allocations_;
    lt->spans.push_back(sp);
    ++spansRecorded_;
}

void
ConnSpanLog::setTraceId(std::uint64_t conn_id, std::uint64_t trace_id)
{
    if (!enabled_)
        return;
    if (LiveTrace *lt = findLive(conn_id))
        lt->head.traceId = trace_id;
}

void
ConnSpanLog::noteShed(std::uint64_t conn_id, std::uint8_t reason)
{
    if (!enabled_)
        return;
    if (LiveTrace *lt = findLive(conn_id))
        lt->head.shedReason = reason;
}

void
ConnSpanLog::close(std::uint64_t conn_id, Tick begin, Tick t)
{
    if (!enabled_)
        return;
    for (StageScope *sc = scopes_; sc;) {
        StageScope *next = sc->next_;
        if (sc->conn_ == conn_id)
            sc->unbind(begin, /*record_spans=*/true);
        sc = next;
    }
    if (const std::uint32_t *slot = live_.find(conn_id))
        finalize(*slot, t, /*orderly=*/true);
}

void
ConnSpanLog::closeAllLive(Tick t)
{
    if (!enabled_ || live_.empty())
        return;
    // Index order is insertion history; sort by conn id so crash
    // finalization is deterministic.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ids;
    ids.reserve(live_.size());
    live_.forEach([&](std::uint64_t id, std::uint32_t slot) {
        ids.emplace_back(id, slot);
    });
    std::sort(ids.begin(), ids.end());
    // closed stays false: no orderly teardown was observed.
    for (const auto &id : ids)
        finalize(id.second, t, /*orderly=*/false);
}

void
ConnSpanLog::finalize(std::uint32_t slot, Tick t, bool orderly)
{
    LiveTrace &lt = slots_[slot];
    lt.head.closeTick = t;
    lt.head.closed = orderly;
    ++closedTotal_;
    if (fleet_) {
        fleet_->stitchMachineSpan(lt.view());
        ++tracesHandedOff_;
    } else if (completed_.size() < kMaxRetainedTraces) {
        if (completed_.size() % decltype(completed_)::kChunk == 0)
            ++allocations_;
        ConnSpanTrace &kept = completed_.push_back(lt.head);
        kept.spans = retainSpans(lt.spans);
    } else {
        ++tracesDropped_;
    }
    live_.erase(lt.head.connId);
    lt.spans.clear();
    freeSlots_.push_back(slot);
}

std::span<const ConnSpan>
ConnSpanLog::retainSpans(std::span<const ConnSpan> src)
{
    if (src.empty())
        return {};
    if (arenaUsed_ + src.size() > kArenaChunk) {
        arena_.push_back(std::make_unique<ConnSpan[]>(kArenaChunk));
        arenaUsed_ = 0;
        ++allocations_;
    }
    ConnSpan *dst = arena_.back().get() + arenaUsed_;
    std::copy(src.begin(), src.end(), dst);
    arenaUsed_ += src.size();
    return {dst, src.size()};
}

std::vector<ConnSpanTrace>
ConnSpanLog::liveSnapshot() const
{
    std::vector<ConnSpanTrace> out;
    out.reserve(live_.size());
    live_.forEach([&](std::uint64_t, std::uint32_t slot) {
        out.push_back(slots_[slot].view());
    });
    std::sort(out.begin(), out.end(),
              [](const ConnSpanTrace &a, const ConnSpanTrace &b) {
                  return a.connId < b.connId;
              });
    return out;
}

std::shared_ptr<const std::vector<ConnSpanTrace>>
ConnSpanLog::copyCompleted(std::size_t from) const
{
    struct Owned
    {
        std::vector<ConnSpan> spans;
        std::vector<ConnSpanTrace> traces;
    };
    auto own = std::make_shared<Owned>();
    std::size_t nspans = 0;
    for (std::size_t i = from; i < completed_.size(); ++i)
        nspans += completed_[i].spans.size();
    // Reserved up front: the copied views must not move.
    own->spans.reserve(nspans);
    own->traces.reserve(completed_.size() > from ? completed_.size() - from
                                                 : 0);
    for (std::size_t i = from; i < completed_.size(); ++i) {
        ConnSpanTrace tr = completed_[i];
        const std::size_t at = own->spans.size();
        own->spans.insert(own->spans.end(), tr.spans.begin(),
                          tr.spans.end());
        tr.spans = {own->spans.data() + at, tr.spans.size()};
        own->traces.push_back(tr);
    }
    return {own, &own->traces};
}

std::uint64_t
ConnSpanLog::execSelfTicks(CoreId core) const
{
    if (static_cast<std::size_t>(core) >= execTicksPerCore_.size())
        return 0;
    return execTicksPerCore_[core];
}

} // namespace fsim
