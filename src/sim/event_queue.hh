/**
 * @file
 * The discrete-event simulation core.
 *
 * A single EventQueue drives one experiment. Events are closures scheduled
 * at absolute ticks; ties are broken in FIFO scheduling order so runs are
 * fully deterministic.
 *
 * Internally this is a hierarchical calendar/ladder queue (Tang & Goh's
 * ladder queue, adapted): a small sorted "bottom" array feeds dispatch, a
 * stack of rungs holds the near/mid future in constant-time buckets, and
 * an unsorted "top" absorbs the far future until it is spilled into a
 * fresh rung. An event is bucketed O(1) on schedule and sorted once, in
 * a bounded-size batch, right before dispatch — amortized O(1) per event
 * where the former std::priority_queue paid O(log n) with millions
 * pending. An overfull bucket re-buckets its events into a sub-rung;
 * with each epoch's rung sized from the last epoch's insert rate that
 * is 0.2–2.1% of schedules on the bench/e2e workloads (75–101% when
 * rungs were sized from the spilled batch alone). Event closures are
 * stored inline (EventFn) in slab-recycled nodes, so the steady-state
 * schedule/dispatch path never touches the heap. See DESIGN.md ("Ladder
 * event queue") for the bucket width and spill/refill policy and the
 * FIFO-preservation argument.
 */

#ifndef FSIM_SIM_EVENT_QUEUE_HH
#define FSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/node_slab.hh"
#include "sim/types.hh"

namespace fsim
{

/** Minimum-time-first discrete event queue. */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule callable @p fn at an absolute time. The closure is
     * constructed once, in place inside a recycled event node.
     *
     * @param when Absolute tick. Must not be in the past: a past tick is
     *             a simulator bug, asserted fatal in debug builds; in
     *             release builds it is clamped to now() (the event still
     *             runs, in FIFO order at the current tick) and counted
     *             in clampedPast() so harnesses can flag it.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        Node *n = beginSchedule(&when);
        n->fn.emplace(std::forward<F>(fn));
        finishSchedule(n);
    }

    /** Schedule a handler @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /**
     * Run the earliest pending event.
     *
     * Defined inline: dispatch is the single hottest loop in the
     * simulator and callers (runAll, the bench replay loops) sit right
     * on top of it; only the bottom refill (prepareBottom) is an
     * out-of-line call.
     *
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (bottom_.empty() && !prepareBottom())
            return false;
        Node *n = bottom_.back().node;
        now_ = bottom_.back().when;
        bottom_.pop_back();
        // Pull the next staged node toward the cache while this one's
        // handler runs; dispatch is dominated by cold node lines
        // otherwise.
        if (!bottom_.empty())
            __builtin_prefetch(bottom_.back().node);
        --size_;
        ++executed_;
        if (opTrace_)
            ++traceRuns_;
        // Dispatch in place: the node is off every list but NOT on the
        // free list yet, so a handler scheduling new events can never
        // recycle it out from under its own closure. Saves a closure
        // relocation per event; the closure is destroyed (freeNode)
        // after it returns.
        n->fn();
        freeNode(n);
        return true;
    }

    /**
     * Run events until simulated time would exceed @p limit.
     *
     * Events scheduled exactly at @p limit still run; afterwards now() is
     * advanced to @p limit even if the queue drained earlier.
     */
    void runUntil(Tick limit);

    /** Run until the queue drains. @return number of events executed. */
    std::uint64_t runAll();

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /**
     * One recorded scheduler op: dispatch @p runs pending events, then
     * schedule one handler @p delta ticks past the then-current now().
     * A stream of these replayed against an empty queue reproduces this
     * workload's op mix (inter-event horizons plus schedule/dispatch
     * interleaving) without any of the simulation behind it.
     */
    struct SchedOp
    {
        Tick delta = 0;
        std::uint32_t runs = 0;
    };

    /**
     * Record every subsequent schedule/dispatch into @p sink (nullptr
     * stops). bench_sim_core uses this to capture real testbed op
     * streams and race the ladder against the frozen heap oracle on
     * them. Costs one predicted branch per op when disarmed; recording
     * itself appends to @p sink and is therefore not allocation-free.
     */
    void recordOps(std::vector<SchedOp> *sink)
    {
        opTrace_ = sink;
        traceRuns_ = 0;
    }

    /** Total events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** @name Self-observability (bench_sim_core, audit tests) */
    /** @{ */
    /** Total schedule() calls accepted so far. */
    std::uint64_t scheduled() const { return scheduled_; }
    /** Release-mode schedules whose past tick was clamped to now(). */
    std::uint64_t clampedPast() const { return clampedPast_; }
    /** High-water mark of pending(). */
    std::size_t peakPending() const { return peakPending_; }
    /** High-water mark of the sorted dispatch bottom, taken between
     *  operations. With no rung active it stays at most kBottomMax. */
    std::size_t peakBottom() const { return peakBottom_; }
    /** Nodes moved from an overfull bucket into a sub-rung: each one
     *  is bucketed a second time. */
    std::uint64_t rebucketed() const { return rebucketed_; }
    /** Node-slab capacity in events (memory visibility). */
    std::size_t slabCapacity() const { return slab_.capacity(); }
    /** @} */

  private:
    /** One pending event; lives in the slab, linked through buckets. */
    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr;
        EventFn fn;
    };
    static_assert(sizeof(Node) == 96);

    /** One event staged for dispatch: its sort key beside its node,
     *  so sorting and searching the bottom never touch a node. */
    struct Staged
    {
        Tick when;
        std::uint64_t seq;
        Node *node;

        /** Dispatch order: earlier tick first, FIFO (seq) within one. */
        bool
        before(const Staged &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** One ladder rung: a span of time cut into equal-width buckets.
     *  Widths are powers of two so the schedule hot path buckets with a
     *  shift instead of a hardware divide. */
    struct Rung
    {
        Tick start = 0;       //!< tick of buckets[0]'s left edge
        Tick end = 0;         //!< one past the last bucket's span
        std::uint32_t shift = 0;   //!< log2(ticks per bucket)
        std::size_t cur = 0;  //!< next bucket to drain
        std::size_t nbuckets = 0;
        /** Each bucket is an unordered list of the nodes in one
         *  bucket-width of time, linked through Node::next: the bottom
         *  sorts a drained bucket by (when, seq), so arrival order
         *  never matters. Capacity is reused across epochs. */
        std::vector<Node *> buckets;

        /** Add @p n to bucket @p idx. */
        void
        pushAt(std::size_t idx, Node *n)
        {
            n->next = buckets[idx];
            buckets[idx] = n;
        }

        /** Add @p n to its bucket; n->when must lie in [start, end). */
        void
        push(Node *n)
        {
            pushAt(static_cast<std::size_t>((n->when - start) >> shift), n);
        }
    };

    /** Bucket batch above which a (width > 1) bucket is subdivided
     *  instead of sorted; also the largest sort the dispatch path pays
     *  for outside same-tick bursts. */
    static constexpr std::size_t kSortThreshold = 64;
    /** Buckets per rung cap: bounds rung memory; denser epochs simply
     *  recurse one level deeper. */
    static constexpr std::size_t kMaxBucketsPerRung = 32768;
    /** Rung recursion cap (defense in depth; depth ~3 in practice). */
    static constexpr std::size_t kMaxRungs = 24;
    /** Refill keeps draining buckets until the bottom stages at least
     *  this many events (or the ladder runs dry): one sort per batch
     *  instead of per bucket, and a wider staged window so more
     *  schedules take the sorted-insert fast path. */
    static constexpr std::size_t kRefillBatch = 32;
    /** Nodes per slab chunk. */
    static constexpr std::size_t kChunkNodes = 4096;

  public:
    /** Largest sorted bottom the pure-bottom regime (no rung active)
     *  keeps: one more event and the bottom's own nodes move into a
     *  fresh rung, so a sorted insert never shifts more than this. */
    static constexpr std::size_t kBottomMax = 2 * kSortThreshold;

  private:
    Node *beginSchedule(Tick *when);
    void finishSchedule(Node *n);
    void
    freeNode(Node *n)
    {
        n->fn.reset();
        slab_.release(n);
    }

    void insertNode(Node *n);
    void insertBottom(Node *n);
    void ladderBottom();
    void pushTop(Node *n);
    Rung &openRung(Tick start, Tick span, std::size_t count);
    bool prepareBottom();
    void spillTop();
    void drainBucket(Rung &r, std::size_t idx);
    void sortBottomSuffix(std::size_t from);

    void stage(Node *n) { bottom_.push_back(Staged{n->when, n->seq, n}); }
    Tick bottomMaxWhen() const { return bottom_.front().when; }

    // Dispatch bottom: sorted descending by (when, seq); back = next.
    std::vector<Staged> bottom_;

    // Ladder rungs, outermost (widest) first; active_ is a stack depth
    // so Rung objects (and their bucket vectors) are reused across
    // epochs instead of reallocated.
    std::vector<Rung> rungs_;
    std::size_t activeRungs_ = 0;

    // Far-future top: unsorted linked list plus its span.
    Node *topHead_ = nullptr;
    Node *topTail_ = nullptr;
    std::size_t topCount_ = 0;
    Tick topMin_ = kTickMax;
    Tick topMax_ = 0;
    /** Events at or after this tick go to the top; kTickMax = no epoch
     *  is active (empty queue / pure-bottom regime). */
    Tick topStart_ = kTickMax;
    /** Events the current epoch's rungs received: the spilled batch
     *  plus every schedule bucketed into a rung since. The next spill
     *  sizes its rung from this count, not from its own batch. */
    std::size_t epochInserts_ = 0;
    /** Ticks the current epoch's rung spans, as a double: the next
     *  spill divides by it, and span + 1 cannot wrap to 0 there. */
    double epochSpan_ = 1.0;

    NodeSlab<Node, kChunkNodes> slab_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;

    std::uint64_t scheduled_ = 0;
    std::uint64_t clampedPast_ = 0;
    std::size_t peakPending_ = 0;
    std::size_t peakBottom_ = 0;
    std::uint64_t rebucketed_ = 0;

    // Op-trace recording (bench_sim_core workload capture).
    std::vector<SchedOp> *opTrace_ = nullptr;
    std::uint32_t traceRuns_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_EVENT_QUEUE_HH
