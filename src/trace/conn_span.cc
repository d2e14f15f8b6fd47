#include "trace/conn_span.hh"

#include <algorithm>

#include "sim/logging.hh"
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
ConnSpanTrace::serviceLatency() const
{
    return ConnSpanFold(*this).latency;
}

ConnSpanFold::ConnSpanFold(const ConnSpanTrace &tr)
{
    Tick last_write = 0;
    Tick last_exec = tr.openTick;
    Tick covered = 0;
    for (const ConnSpan &sp : tr.spans) {
        const auto idx = static_cast<std::size_t>(sp.stage);
        const Tick len = sp.end - sp.begin;
        stageTicks[idx] += len;
        ++stageCounts[idx];
        if (sp.stage == ConnStage::kAppWrite)
            last_write = std::max(last_write, sp.end);
        const ConnStageKind kind = connStageKind(sp.stage);
        if (kind == ConnStageKind::kExec) {
            exec += len;
            last_exec = std::max(last_exec, sp.end);
        }
        if (kind != ConnStageKind::kSub)
            covered += len;
        if (kind != ConnStageKind::kWait && sp.core >= 0) {
            fsim_assert(sp.core < kMaxCores &&
                        "ConnSpanFold: core id past kMaxCores");
            cores[static_cast<std::size_t>(sp.core)] = true;
        }
    }
    const Tick done = last_write ? last_write : last_exec;
    latency = done > tr.openTick ? done - tr.openTick : 0;
    unattributed = latency > covered ? latency - covered : 0;
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
ConnSpanLog::open(std::uint64_t conn_id, Tick t, bool passive,
                  std::uint64_t trace_id)
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
    lt->head.traceId = trace_id;
    lt->head.openTick = t;
    lt->head.passive = passive;
    ++opened_;
}

void
ConnSpanLog::append(std::uint64_t conn_id, std::span<const ConnSpan> batch)
{
    if (!enabled_)
        return;
    LiveTrace *lt = findLive(conn_id);
    if (!lt)
        return; // stray work after teardown (e.g. duplicate packets)
    for (ConnSpan sp : batch) {
        if (sp.end < sp.begin)
            sp.end = sp.begin;
        if (connStageKind(sp.stage) == ConnStageKind::kExec) {
            const auto core = static_cast<std::size_t>(sp.core);
            if (execTicksPerCore_.size() <= core)
                execTicksPerCore_.resize(core + 1, 0);
            execTicksPerCore_[core] += sp.end - sp.begin;
        }
        if (lt->spans.size() >= kMaxSpansPerConn) {
            ++spansDropped_;
            continue;
        }
        if (lt->spans.size() == lt->spans.capacity())
            ++allocations_;
        lt->spans.push_back(sp);
        ++spansRecorded_;
    }
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

void
ConnSpanLog::stitchLive()
{
    if (!fleet_)
        return;
    live_.forEach([&](std::uint64_t, std::uint32_t slot) {
        fleet_->stitchMachineSpan(slots_[slot].view());
    });
}

std::uint64_t
ConnSpanLog::execSelfTicks(CoreId core) const
{
    if (static_cast<std::size_t>(core) >= execTicksPerCore_.size())
        return 0;
    return execTicksPerCore_[core];
}

} // namespace fsim
