#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace fsim
{

CpuModel::CpuModel(EventQueue &eq, CacheModel &cache,
                   const CycleCosts &costs, int n_cores)
    : eq_(eq), cache_(cache), costs_(costs), cores_(n_cores)
{
    fsim_assert(n_cores > 0);
    for (int i = 0; i < n_cores; ++i)
        cores_[i].id_ = i;
}

void
CpuModel::enqueue(CoreId c, TaskPrio prio, TaskNode *n)
{
    Core &core = cores_.at(c);
    Core::Fifo &q = core.queues_[static_cast<int>(prio)];
    n->next = nullptr;
    if (q.tail)
        q.tail->next = n;
    else
        q.head = n;
    q.tail = n;
    ++q.size;
    if (tracer_)
        tracer_->noteQueueDepth(prio == TaskPrio::kSoftIrq
                                    ? TraceQueueId::kSoftirqBacklog
                                    : TraceQueueId::kProcessBacklog,
                                eq_.now(),
                                static_cast<std::uint32_t>(q.size));
    if (!core.running_) {
        core.running_ = true;
        Tick start = std::max(eq_.now(), core.busyUntil_);
        eq_.schedule(start, [this, c] { runNext(c); });
    }
}

void
CpuModel::runNext(CoreId c)
{
    Core &core = cores_.at(c);
    const bool softirq = core.queues_[0].head != nullptr;
    Core::Fifo &q = core.queues_[softirq ? 0 : 1];
    TaskNode *n = q.head;
    if (!n) {
        core.running_ = false;
        return;
    }
    // Unlink before running: the task may post to this very queue.
    q.head = n->next;
    if (!q.head)
        q.tail = nullptr;
    else
        __builtin_prefetch(q.head);
    --q.size;

    Tick start = eq_.now();
    if (start < core.busyUntil_)
        fsim_panic("core %d task overlap: start=%llu busyUntil=%llu",
                   c, (unsigned long long)start,
                   (unsigned long long)core.busyUntil_);
    if (tracer_) {
        tracer_->noteQueueDepth(softirq ? TraceQueueId::kSoftirqBacklog
                                        : TraceQueueId::kProcessBacklog,
                                start, static_cast<std::uint32_t>(q.size));
        // The root frame: everything the task does nests under it, so
        // attributed cycles partition the core's busy time exactly.
        tracer_->pushPhase(c, softirq ? Phase::kSoftirq : Phase::kApp,
                           start);
    }
    // Run in place; the node goes back to the slab (most recently
    // freed, so next to be reused) only after the closure returns.
    Tick end = n->fn(start);
    n->fn.reset();
    slab_.release(n);
    if (end < start)
        fsim_panic("task finished before it started");
    // Gray-machine degrade: stretch the task's busy window. Integer
    // math keeps same-seed runs bit-identical; stretching before the
    // root phase frame closes keeps attributed cycles == busy ticks.
    if (slowdownPermille_ > 1000) {
        Tick work = end - start;
        end += work * (slowdownPermille_ - 1000) / 1000;
    }
    if (tracer_)
        tracer_->popPhase(c, end);

    Tick work = end - start;
    core.busyTicks_ += work;
    core.busyUntil_ = end;
    ++core.tasksRun_;
    // Implicit always-local accesses for miss-rate realism.
    cache_.noteLocalAccesses(c, work / costs_.cyclesPerLocalAccess);

    if (!core.queues_[0].head && !core.queues_[1].head) {
        core.running_ = false;
    } else {
        eq_.schedule(end, [this, c] { runNext(c); });
    }
}

std::uint64_t
CpuModel::totalBusyTicks() const
{
    std::uint64_t total = 0;
    for (const Core &core : cores_)
        total += core.busyTicks_;
    return total;
}

} // namespace fsim
