#include "timerwheel/timer_wheel.hh"

#include <utility>

#include "sim/logging.hh"

namespace fsim
{

TimerWheel::TimerWheel(std::uint64_t start_jiffy)
    : jiffy_(start_jiffy)
{
}

std::uint32_t
TimerWheel::indexOf(TimerId id) const
{
    const std::uint32_t idx = static_cast<std::uint32_t>(id);
    if (idx == 0 || idx > nodes_.size())
        return kNil;
    const Node &n = nodes_[idx - 1];
    if (!n.live || n.gen != static_cast<std::uint32_t>(id >> 32))
        return kNil;
    return idx - 1;
}

void
TimerWheel::freeNode(std::uint32_t idx)
{
    Node &n = nodes_[idx];
    n.cb.reset();
    n.live = false;
    n.level = kDetached;
    ++n.gen;   // every outstanding handle to this slot goes stale
    n.next = freeHead_;
    freeHead_ = idx;
}

TimerWheel::TimerId
TimerWheel::add(std::uint64_t expires, Callback cb)
{
    std::uint32_t idx;
    if (freeHead_ != kNil) {
        idx = freeHead_;
        freeHead_ = nodes_[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{});
    }
    Node &n = nodes_[idx];
    n.expires = expires;
    n.cb = std::move(cb);
    n.live = true;
    n.level = kDetached;
    ++liveCount_;
    place(idx);
    return (static_cast<TimerId>(n.gen) << 32) | (idx + 1);
}

bool
TimerWheel::cancel(TimerId id)
{
    const std::uint32_t idx = indexOf(id);
    if (idx == kNil)
        return false;
    detach(idx);
    freeNode(idx);
    --liveCount_;
    return true;
}

bool
TimerWheel::modify(TimerId id, std::uint64_t expires)
{
    const std::uint32_t idx = indexOf(id);
    if (idx == kNil)
        return false;
    detach(idx);
    nodes_[idx].expires = expires;
    place(idx);
    return true;
}

TimerWheel::Slot &
TimerWheel::slotOf(const Node &node)
{
    if (node.level == kDue)
        return due_;
    if (node.level == 0)
        return tv1_[node.index];
    return tvn_[node.level - 1][node.index];
}

void
TimerWheel::pushBack(Slot &slot, std::uint32_t idx)
{
    Node &n = nodes_[idx];
    n.prev = slot.tail;
    n.next = kNil;
    if (slot.tail != kNil)
        nodes_[slot.tail].next = idx;
    else
        slot.head = idx;
    slot.tail = idx;
    ++slot.count;
}

void
TimerWheel::unlink(Slot &slot, std::uint32_t idx)
{
    const Node &n = nodes_[idx];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        slot.head = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        slot.tail = n.prev;
    --slot.count;
}

void
TimerWheel::place(std::uint32_t idx)
{
    Node &node = nodes_[idx];
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

    node.level = level;
    node.index = static_cast<std::uint16_t>(index);
    pushBack(slotOf(node), idx);
}

void
TimerWheel::detach(std::uint32_t idx)
{
    Node &node = nodes_[idx];
    // A live node is detached only inside add() and advance(), and
    // neither hands control to a caller in that state.
    fsim_assert(node.level != kDetached);
    Slot &slot = slotOf(node);
    if (node.level == kDue) {
        // The due batch fires in list order; leave the rest in place.
        unlink(slot, idx);
    } else {
        // Swap-with-back: the tail node takes over the hole, so slot
        // order matches a vector slot's swap-and-pop.
        const std::uint32_t moved = slot.tail;
        unlink(slot, moved);
        if (moved != idx) {
            Node &m = nodes_[moved];
            m.prev = node.prev;
            m.next = node.next;
            if (node.prev != kNil)
                nodes_[node.prev].next = moved;
            else
                slot.head = moved;
            if (node.next != kNil)
                nodes_[node.next].prev = moved;
            else
                slot.tail = moved;
        }
    }
    node.level = kDetached;
}

void
TimerWheel::cascade(std::uint32_t level, std::uint32_t index)
{
    Slot &slot = tvn_[level][index];
    cascaded_ += slot.count;
    // Take the whole chain first: place() may legally re-append into
    // this same slot (clamped far-future timers), and it rewrites each
    // node's links, so read next before placing.
    std::uint32_t idx = slot.head;
    slot = Slot{};
    while (idx != kNil) {
        const std::uint32_t next = nodes_[idx].next;
        place(idx);
        idx = next;
    }
}

void
TimerWheel::tickOnce()
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

    // Move the due slot out whole. Its members are marked kDue, so a
    // cancel()/modify() issued by an earlier callback in this batch
    // unlinks the later member from the batch instead of from a wheel
    // slot. Callbacks must not call advance() themselves.
    fsim_assert(due_.head == kNil);
    due_ = tv1_[idx1];
    tv1_[idx1] = Slot{};
    for (std::uint32_t i = due_.head; i != kNil; i = nodes_[i].next)
        nodes_[i].level = kDue;
    while (due_.head != kNil) {
        const std::uint32_t idx = due_.head;
        unlink(due_, idx);
        Node &n = nodes_[idx];
        n.level = kDetached;
        if (n.expires > jiffy_) {
            place(idx);
            continue;
        }
        Callback cb = std::move(n.cb);
        freeNode(idx);
        --liveCount_;
        ++fired_;
        cb();
    }
}

std::size_t
TimerWheel::advance(std::uint64_t to_jiffy)
{
    std::size_t before = fired_;
    while (jiffy_ < to_jiffy)
        tickOnce();
    return fired_ - before;
}

std::size_t
TimerWheel::slotEntries() const
{
    std::size_t n = 0;
    for (const Slot &s : tv1_)
        n += s.count;
    for (const auto &level : tvn_)
        for (const Slot &s : level)
            n += s.count;
    return n;
}

} // namespace fsim
