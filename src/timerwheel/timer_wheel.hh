/**
 * @file
 * Linux-style hierarchical (cascading) timing wheel.
 *
 * The structure mirrors the classic kernel timer wheel: one 256-slot base
 * level (tv1) and four 64-slot cascade levels (tv2..tv5), advancing one
 * jiffy at a time and cascading a higher-level slot down whenever the lower
 * index wraps. Each simulated core owns one wheel ("timer base"), protected
 * by the base.lock the paper's Table 1 reports on.
 *
 * Slots are intrusive lists of node-slab indices ({head, tail, count}),
 * so the wheel's memory is the node slab and nothing else: no slot owns
 * storage, and arming a timer into a never-used slot cannot allocate.
 * cancel() and modify() detach eagerly in O(1) by moving the slot's tail
 * node into the hole — the list analogue of swap-with-back — so timers in
 * a slot keep firing in the order a vector-per-slot wheel fires them
 * (tests/reference_timer_wheel.hh keeps that wheel as the oracle). The
 * earlier lazy-cancel scheme left stale ids in the slots until the slot
 * was next visited; under keepalive-timer churn (one mod_timer per data
 * segment) with millions of live connections those stale entries grew
 * without bound between cascades.
 *
 * Nodes live in a generation-tagged slab (a ChunkedVector plus an
 * intrusive free list threaded through the same next link the slot
 * lists use) instead of a std::unordered_map: arming a timer in steady
 * state recycles a slot instead of allocating a map node, and growing
 * the slab adds one chunk instead of copying every node into a buffer
 * twice the size. A TimerId
 * encodes {slab index, generation}, so a stale handle (cancel of an
 * already-fired timer whose slot was since reused) misses on the
 * generation check exactly like it used to miss in the map.
 * Callbacks are stored inline (InlineFn): the wheel's capture budget is
 * sized by TimerBase's context wrapper [this, TimerBase::Callback].
 */

#ifndef FSIM_TIMERWHEEL_TIMER_WHEEL_HH
#define FSIM_TIMERWHEEL_TIMER_WHEEL_HH

#include <cstdint>

#include "sim/chunked_vector.hh"
#include "sim/event_fn.hh"

namespace fsim
{

/** Cascading timer wheel keyed in jiffies. */
class TimerWheel
{
  public:
    /** Inline capture budget for wheel callbacks: fits TimerBase's
     *  [this + contextful-callback] wrapper with nothing to spare —
     *  grow TimerBase::kTimerCaptureMax first if a new arm site needs
     *  more. */
    static constexpr std::size_t kWheelCaptureMax = 64;
    using Callback = InlineFn<void(), kWheelCaptureMax>;
    using TimerId = std::uint64_t;

    /** Sentinel for "no timer". */
    static constexpr TimerId kInvalidTimer = 0;

    explicit TimerWheel(std::uint64_t start_jiffy = 0);

    /**
     * Arm a timer.
     *
     * @param expires Absolute jiffy; values in the past fire on the next
     *                advance.
     * @return Handle usable with cancel()/modify().
     */
    TimerId add(std::uint64_t expires, Callback cb);

    /**
     * Cancel a pending timer.
     *
     * @return true if the timer was still pending.
     */
    bool cancel(TimerId id);

    /**
     * Re-arm a pending timer to a new expiry (like mod_timer()).
     *
     * @return true if the timer was still pending and has been moved.
     */
    bool modify(TimerId id, std::uint64_t expires);

    /**
     * Advance time to @p to_jiffy inclusive, firing expired callbacks in
     * jiffy order. Callbacks may add, cancel and modify timers, but must
     * not call advance() themselves.
     *
     * @return number of timers fired.
     */
    std::size_t advance(std::uint64_t to_jiffy);

    /** Currently pending (armed, not cancelled) timers. */
    std::size_t pending() const { return liveCount_; }

    std::uint64_t currentJiffy() const { return jiffy_; }

    /**
     * Total timers linked into wheel slots. With eager detach this
     * equals pending() outside of a firing batch; the accessor exists so
     * tests can assert slot occupancy stays bounded under cancel/modify
     * churn.
     */
    std::size_t slotEntries() const;

    /** Timers moved down a level by cascades so far (cost visibility). */
    std::uint64_t cascaded() const { return cascaded_; }

    /** Slab nodes created so far: the most ever in use at once
     *  (memory visibility for scale tests). */
    std::size_t slabCapacity() const { return nodes_.size(); }

  private:
    /** Null slab index: end of a slot list or of the free list. */
    static constexpr std::uint32_t kNil = 0xffffffff;
    /** Node::level values beyond the wheel's own (0 = tv1, 1..kLevels
     *  = tvn_[level-1]): in the batch being fired, or in no list. */
    static constexpr std::uint8_t kDue = 0xfe;
    static constexpr std::uint8_t kDetached = 0xff;

    struct Node
    {
        std::uint64_t expires = 0;
        Callback cb;
        std::uint32_t gen = 0;
        /** Slot-list links; next doubles as the free-list link. */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint16_t index = 0;
        std::uint8_t level = kDetached;
        bool live = false;
    };
    static_assert(sizeof(Node) == 96);

    /** One slot: a doubly linked list of slab indices. */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t count = 0;
    };

    static constexpr std::uint32_t kTv1Bits = 8;
    static constexpr std::uint32_t kTvnBits = 6;
    static constexpr std::uint32_t kTv1Size = 1u << kTv1Bits;   // 256
    static constexpr std::uint32_t kTvnSize = 1u << kTvnBits;   // 64
    static constexpr std::uint32_t kLevels = 4;                 // tv2..tv5

    /** Slab index of a live handle; kNil when stale or invalid. */
    std::uint32_t indexOf(TimerId id) const;
    /** Return a node to the free list; bumps its generation so every
     *  outstanding handle to it goes stale. */
    void freeNode(std::uint32_t idx);

    Slot &slotOf(const Node &node);
    void pushBack(Slot &slot, std::uint32_t idx);
    /** Order-preserving unlink. */
    void unlink(Slot &slot, std::uint32_t idx);
    void place(std::uint32_t idx);
    void detach(std::uint32_t idx);
    void cascade(std::uint32_t level, std::uint32_t index);
    void tickOnce();

    std::uint64_t jiffy_;
    std::size_t liveCount_ = 0;
    std::size_t fired_ = 0;
    std::uint64_t cascaded_ = 0;

    Slot tv1_[kTv1Size];
    Slot tvn_[kLevels][kTvnSize];
    /** The batch being fired: tv1's due slot, moved out whole so a
     *  callback's cancel()/modify() of a later member unlinks it here. */
    Slot due_;

    /** 64 nodes (6 KiB) per chunk: a wheel holds tens to a few thousand. */
    ChunkedVector<Node, 6> nodes_;
    std::uint32_t freeHead_ = kNil;
};

} // namespace fsim

#endif // FSIM_TIMERWHEEL_TIMER_WHEEL_HH
