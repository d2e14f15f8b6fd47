/**
 * @file
 * Simulated CPU cores and their run-to-completion task scheduler.
 *
 * Each core executes tasks serially. A task is a closure that receives its
 * start tick and returns its finish tick; inside, it charges cycle costs,
 * acquires simulated locks (which may extend its timeline by spin waiting)
 * and performs cache-model accesses. Two priority levels model the kernel's
 * execution contexts: SoftIRQ work always preempts (runs before) queued
 * process-context work, like NET_RX SoftIRQ does in Linux.
 *
 * Queued tasks live in nodes of one machine-wide slab (sim/node_slab.hh)
 * linked into two intrusive FIFOs per core. post() builds the closure
 * directly in a recycled node and the scheduler runs it in place, so a
 * shallow steady backlog keeps reusing the same few warm nodes.
 */

#ifndef FSIM_CPU_CORE_HH
#define FSIM_CPU_CORE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cpu/cache_model.hh"
#include "cpu/cycle_costs.hh"
#include "sim/event_fn.hh"
#include "sim/event_queue.hh"
#include "sim/node_slab.hh"
#include "sim/types.hh"

namespace fsim
{

class Tracer;

/** Scheduling class of a task. Lower value runs first. */
enum class TaskPrio
{
    kSoftIrq = 0,  //!< NET_RX SoftIRQ / timer SoftIRQ context
    kProcess = 1,  //!< application process context
};

/**
 * A unit of work: start tick in, finish tick out.
 *
 * Stored inline (no heap): the capture budget is sized by the largest
 * post() site in the tree, the kernel's RFD steering closure
 * [this, target, Packet, steer origin] in kernel_stack.cc: 8 + 4 + a
 * 56-byte Packet + a 16-byte Steer, 88 bytes with padding, leaving 8
 * to spare.
 */
constexpr std::size_t kTaskCaptureMax = 96;
using Task = InlineFn<Tick(Tick), kTaskCaptureMax>;

/** A queued task: slab-allocated, linked into its core's FIFO. */
struct TaskNode
{
    TaskNode *next = nullptr;
    Task fn;
};
static_assert(sizeof(TaskNode) == 112);

class CpuModel;

/** One simulated CPU core. */
class Core
{
  public:
    CoreId id() const { return id_; }

    /** Cycles this core spent executing tasks since construction. */
    std::uint64_t busyTicks() const { return busyTicks_; }

    /** Number of tasks executed. */
    std::uint64_t tasksRun() const { return tasksRun_; }

    /** Tick at which the currently queued work will have drained. */
    Tick busyUntil() const { return busyUntil_; }

    /** Queued but not yet started tasks. */
    std::size_t backlog() const
    {
        return queues_[0].size + queues_[1].size;
    }

    /** Queued SoftIRQ tasks only (the netdev_max_backlog analogue the
     *  overload subsystem budgets against). */
    std::size_t softirqBacklog() const
    {
        return queues_[static_cast<int>(TaskPrio::kSoftIrq)].size;
    }

  private:
    friend class CpuModel;

    /** Intrusive FIFO: push at tail, pop at head. */
    struct Fifo
    {
        TaskNode *head = nullptr;
        TaskNode *tail = nullptr;
        std::size_t size = 0;
    };

    CoreId id_ = kInvalidCore;
    Fifo queues_[2];   //!< indexed by TaskPrio
    bool running_ = false;
    Tick busyUntil_ = 0;
    std::uint64_t busyTicks_ = 0;
    std::uint64_t tasksRun_ = 0;
};

/** The set of cores of one simulated machine. */
class CpuModel
{
  public:
    CpuModel(EventQueue &eq, CacheModel &cache, const CycleCosts &costs,
             int n_cores);

    int numCores() const { return static_cast<int>(cores_.size()); }
    Core &core(CoreId c) { return cores_.at(c); }
    const Core &core(CoreId c) const { return cores_.at(c); }

    /**
     * Enqueue task @p fn (a Tick(Tick) callable) on core @p c.
     *
     * The task starts as soon as the core is free and no higher-priority
     * work is pending. The closure is constructed once, in place inside
     * a recycled slab node, and runs there.
     */
    template <typename F>
    void
    post(CoreId c, TaskPrio prio, F &&fn)
    {
        TaskNode *n = slab_.alloc();
        n->fn.emplace(std::forward<F>(fn));
        enqueue(c, prio, n);
    }

    /** Sum of busyTicks over all cores. */
    std::uint64_t totalBusyTicks() const;

    EventQueue &eventQueue() { return eq_; }
    CacheModel &cache() { return cache_; }
    const CycleCosts &costs() const { return costs_; }

    /**
     * Attach the machine tracer. Every task then runs under a root
     * phase frame (SoftIRQ tasks under softirq, process tasks under
     * app), which is what makes the cycle-attribution sum equal the
     * measured busy cycles, and backlog depths are recorded as queue
     * events.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }
    Tracer *tracer() { return tracer_; }

    /**
     * Degrade (or restore) the whole machine's execution speed: every
     * task's charged cycles are stretched by @p permille / 1000 at
     * completion (1000 = nominal, 4000 = 4x slower). Models a gray
     * machine — thermal throttling, a noisy neighbor, a dying disk
     * stalling the kernel — whose work still completes, just late.
     * The stretch is applied before phase attribution closes, so the
     * attributed-cycles == busy-ticks invariant holds while degraded.
     */
    void setSlowdownPermille(std::uint32_t permille)
    {
        slowdownPermille_ = permille < 1000 ? 1000 : permille;
    }

  private:
    /** Task nodes per slab chunk (14 KiB of 112-byte nodes). */
    static constexpr std::size_t kChunkNodes = 128;

    void enqueue(CoreId c, TaskPrio prio, TaskNode *n);
    void runNext(CoreId c);

    EventQueue &eq_;
    CacheModel &cache_;
    const CycleCosts &costs_;
    Tracer *tracer_ = nullptr;
    std::uint32_t slowdownPermille_ = 1000;
    std::vector<Core> cores_;
    NodeSlab<TaskNode, kChunkNodes> slab_;
};

} // namespace fsim

#endif // FSIM_CPU_CORE_HH
