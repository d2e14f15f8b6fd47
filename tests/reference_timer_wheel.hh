/**
 * @file
 * The vector-slot timer wheel, kept verbatim as a test oracle.
 *
 * This is the TimerWheel the simulator shipped with before its slots
 * became intrusive index lists: every slot is a std::vector of ids,
 * cancel/modify detach with swap-with-back, and the due batch and
 * cascades iterate scratch copies. The differential test
 * (test_timer_wheel_diff.cc) drives it and the intrusive wheel through
 * the same operations and requires the same firing order. Do not
 * "improve" it: its value is that it keeps the exact slot order every
 * committed fingerprint was recorded under.
 */

#ifndef FSIM_TESTS_REFERENCE_TIMER_WHEEL_HH
#define FSIM_TESTS_REFERENCE_TIMER_WHEEL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/logging.hh"

namespace fsim
{

/** The vector-slot cascading wheel, frozen. */
class ReferenceTimerWheel
{
  public:
    static constexpr std::size_t kWheelCaptureMax = 64;
    using Callback = InlineFn<void(), kWheelCaptureMax>;
    using TimerId = std::uint64_t;

    /** Sentinel for "no timer". */
    static constexpr TimerId kInvalidTimer = 0;

    explicit ReferenceTimerWheel(std::uint64_t start_jiffy = 0);

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
     * jiffy order.
     *
     * @return number of timers fired.
     */
    std::size_t advance(std::uint64_t to_jiffy);

    /** Currently pending (armed, not cancelled) timers. */
    std::size_t pending() const { return liveCount_; }

    std::uint64_t currentJiffy() const { return jiffy_; }

    /**
     * Total ids held across all slot vectors. With eager detach this
     * equals pending() outside of a firing batch; the accessor exists so
     * tests can assert slot memory stays bounded under cancel/modify
     * churn.
     */
    std::size_t slotEntries() const;

    /** Timers moved down a level by cascades so far (cost visibility). */
    std::uint64_t cascaded() const { return cascaded_; }

    /** Node-slab capacity (memory visibility for scale tests). */
    std::size_t slabCapacity() const { return nodes_.size(); }

  private:
    /** Slot coordinates: level 0 is tv1, 1..kLevels are tvn_[level-1]. */
    static constexpr std::uint8_t kDetached = 0xff;
    static constexpr std::uint32_t kNoFree = 0xffffffff;

    struct Node
    {
        std::uint64_t expires = 0;
        Callback cb;
        std::uint32_t gen = 0;
        std::uint32_t index = 0;
        std::uint32_t pos = 0;
        std::uint32_t nextFree = kNoFree;
        std::uint8_t level = kDetached;
        bool live = false;
    };

    static constexpr std::uint32_t kTv1Bits = 8;
    static constexpr std::uint32_t kTvnBits = 6;
    static constexpr std::uint32_t kTv1Size = 1u << kTv1Bits;   // 256
    static constexpr std::uint32_t kTvnSize = 1u << kTvnBits;   // 64
    static constexpr std::uint32_t kLevels = 4;                 // tv2..tv5

    using Slot = std::vector<TimerId>;

    /** Slab lookup; nullptr when the handle is stale or invalid. */
    Node *nodeAt(TimerId id);
    /** Return a node to the free list; bumps its generation so every
     *  outstanding handle to it goes stale. */
    void freeNode(TimerId id);

    Slot &slotAt(std::uint8_t level, std::uint32_t index);
    void place(TimerId id, Node &node);
    void detach(Node &node);
    void cascade(std::uint32_t level, std::uint32_t index);
    void tickOnce();

    std::uint64_t jiffy_;
    std::size_t liveCount_ = 0;
    std::size_t fired_ = 0;
    std::uint64_t cascaded_ = 0;

    Slot tv1_[kTv1Size];
    Slot tvn_[kLevels][kTvnSize];

    std::vector<Node> nodes_;
    std::uint32_t freeHead_ = kNoFree;
    /** Scratch vectors (capacity reused across ticks; swapped into a
     *  local during use so reentrant advance stays safe). */
    Slot due_;
    Slot cascadeScratch_;
};

inline ReferenceTimerWheel::ReferenceTimerWheel(std::uint64_t start_jiffy)
    : jiffy_(start_jiffy)
{
    // The shipped wheel reserved sticky slot capacity here for the
    // allocation audit; capacity never changes slot order, so the
    // oracle leaves it out.
}

inline ReferenceTimerWheel::Node *
ReferenceTimerWheel::nodeAt(TimerId id)
{
    const std::uint32_t idx = static_cast<std::uint32_t>(id);
    if (idx == 0 || idx > nodes_.size())
        return nullptr;
    Node &n = nodes_[idx - 1];
    if (!n.live || n.gen != static_cast<std::uint32_t>(id >> 32))
        return nullptr;
    return &n;
}

inline void
ReferenceTimerWheel::freeNode(TimerId id)
{
    const std::uint32_t idx = static_cast<std::uint32_t>(id) - 1;
    Node &n = nodes_[idx];
    n.cb.reset();
    n.live = false;
    n.level = kDetached;
    ++n.gen;   // every outstanding handle to this slot goes stale
    n.nextFree = freeHead_;
    freeHead_ = idx;
}

inline ReferenceTimerWheel::TimerId
ReferenceTimerWheel::add(std::uint64_t expires, Callback cb)
{
    std::uint32_t idx;
    if (freeHead_ != kNoFree) {
        idx = freeHead_;
        freeHead_ = nodes_[idx].nextFree;
    } else {
        idx = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    Node &n = nodes_[idx];
    n.expires = expires;
    n.cb = std::move(cb);
    n.live = true;
    n.level = kDetached;
    n.nextFree = kNoFree;
    const TimerId id =
        (static_cast<TimerId>(n.gen) << 32) | (idx + 1);
    ++liveCount_;
    place(id, n);
    return id;
}

inline bool
ReferenceTimerWheel::cancel(TimerId id)
{
    Node *n = nodeAt(id);
    if (!n)
        return false;
    detach(*n);
    freeNode(id);
    --liveCount_;
    return true;
}

inline bool
ReferenceTimerWheel::modify(TimerId id, std::uint64_t expires)
{
    Node *n = nodeAt(id);
    if (!n)
        return false;
    detach(*n);
    n->expires = expires;
    place(id, *n);
    return true;
}

inline ReferenceTimerWheel::Slot &
ReferenceTimerWheel::slotAt(std::uint8_t level, std::uint32_t index)
{
    if (level == 0)
        return tv1_[index];
    return tvn_[level - 1][index];
}

inline void
ReferenceTimerWheel::place(TimerId id, Node &node)
{
    // Clamp far-future timers into the outermost level, like the kernel.
    constexpr std::uint64_t kMaxDelta =
        (1ull << (kTv1Bits + kLevels * kTvnBits)) - 1;
    std::uint64_t expires = node.expires;
    if (expires > jiffy_ + kMaxDelta)
        expires = jiffy_ + kMaxDelta;

    std::uint64_t delta =
        expires > jiffy_ ? expires - jiffy_ : 0;

    std::uint8_t level;
    std::uint32_t index;
    if (delta == 0) {
        // Already (or about to be) expired: fire on the next tick.
        level = 0;
        index = (jiffy_ + 1) & (kTv1Size - 1);
    } else if (delta < kTv1Size) {
        level = 0;
        index = expires & (kTv1Size - 1);
    } else {
        level = kLevels;    // outermost unless a lower level fits
        index = 0;
        for (std::uint32_t l = 0; l < kLevels; ++l) {
            std::uint32_t shift = kTv1Bits + (l + 1) * kTvnBits;
            if (delta < (1ull << shift) || l == kLevels - 1) {
                level = static_cast<std::uint8_t>(l + 1);
                index = (expires >> (shift - kTvnBits)) & (kTvnSize - 1);
                break;
            }
        }
    }

    Slot &slot = slotAt(level, index);
    node.level = level;
    node.index = index;
    node.pos = static_cast<std::uint32_t>(slot.size());
    slot.push_back(id);
}

inline void
ReferenceTimerWheel::detach(Node &node)
{
    if (node.level == kDetached)
        return;
    Slot &slot = slotAt(node.level, node.index);
    fsim_assert(node.pos < slot.size());
    TimerId moved = slot.back();
    slot[node.pos] = moved;
    slot.pop_back();
    if (node.pos < slot.size()) {
        // Fix the swapped-in entry's recorded position.
        Node *mn = nodeAt(moved);
        fsim_assert(mn != nullptr);
        mn->pos = node.pos;
    }
    node.level = kDetached;
}

inline void
ReferenceTimerWheel::cascade(std::uint32_t level, std::uint32_t index)
{
    Slot &slot = tvn_[level][index];
    cascaded_ += slot.size();
    // place() may legally re-append into this same slot (clamped
    // far-future timers), so iterate a scratch copy. The scratch's
    // capacity is sticky (swapped back when done), keeping steady-state
    // cascades allocation-free yet reentrancy-safe.
    Slot moved;
    moved.swap(cascadeScratch_);
    moved.assign(slot.begin(), slot.end());
    slot.clear();
    for (TimerId id : moved) {
        Node *n = nodeAt(id);
        if (!n)
            continue;   // defensive; eager detach should prevent this
        n->level = kDetached;
        place(id, *n);
    }
    moved.clear();
    moved.swap(cascadeScratch_);
}

inline void
ReferenceTimerWheel::tickOnce()
{
    ++jiffy_;
    std::uint32_t idx1 = jiffy_ & (kTv1Size - 1);
    if (idx1 == 0) {
        for (std::uint32_t level = 0; level < kLevels; ++level) {
            std::uint32_t shift = kTv1Bits + level * kTvnBits;
            std::uint32_t idx = (jiffy_ >> shift) & (kTvnSize - 1);
            cascade(level, idx);
            if (idx != 0)
                break;
        }
    }

    // The due batch is detached from the wheel: copy it to a reusable
    // scratch and mark members so a cancel()/modify() issued by an
    // earlier callback in this batch does not try to swap-pop inside
    // the already-cleared slot vector.
    Slot due;
    due.swap(due_);
    due.assign(tv1_[idx1].begin(), tv1_[idx1].end());
    tv1_[idx1].clear();
    for (TimerId id : due) {
        Node *n = nodeAt(id);
        if (n)
            n->level = kDetached;
    }
    for (TimerId id : due) {
        Node *n = nodeAt(id);
        if (!n)
            continue;   // cancelled by an earlier callback in this batch
        if (n->expires > jiffy_) {
            // Re-armed to a later time by an earlier callback; if it is
            // still detached, give it back a real slot.
            if (n->level == kDetached)
                place(id, *n);
            continue;
        }
        Callback cb = std::move(n->cb);
        freeNode(id);
        --liveCount_;
        ++fired_;
        cb();
    }
    due.clear();
    due.swap(due_);
}

inline std::size_t
ReferenceTimerWheel::advance(std::uint64_t to_jiffy)
{
    std::size_t before = fired_;
    while (jiffy_ < to_jiffy)
        tickOnce();
    return fired_ - before;
}

inline std::size_t
ReferenceTimerWheel::slotEntries() const
{
    std::size_t n = 0;
    for (const Slot &s : tv1_)
        n += s.size();
    for (const auto &level : tvn_)
        for (const Slot &s : level)
            n += s.size();
    return n;
}

} // namespace fsim

#endif // FSIM_TESTS_REFERENCE_TIMER_WHEEL_HH
