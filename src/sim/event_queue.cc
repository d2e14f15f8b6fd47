#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fsim
{

namespace
{

/** Total order on events: earlier tick first, FIFO (seq) within a tick. */
inline bool
earlier(const Tick wa, const std::uint64_t sa,
        const Tick wb, const std::uint64_t sb)
{
    if (wa != wb)
        return wa < wb;
    return sa < sb;
}

/**
 * Set rung geometry to cover @p span ticks with roughly @p target
 * buckets: width is the smallest power of two >= span/target + 1 so
 * the schedule path buckets with a shift. @p end saturates at
 * kTickMax rather than wrapping for spans near the tick ceiling.
 */
inline void
setRungGeometry(Tick start, Tick span, std::size_t target,
                Tick *endOut, std::uint32_t *shiftOut,
                std::size_t *nbucketsOut)
{
    const Tick minWidth = span / target + 1;
    std::uint32_t shift = 0;
    while ((Tick{1} << shift) < minWidth)
        ++shift;
    const std::size_t nbuckets =
        static_cast<std::size_t>(span >> shift) + 1;
    const Tick covered = static_cast<Tick>(nbuckets) << shift;
    *endOut = (start + covered < start) ? kTickMax : start + covered;
    *shiftOut = shift;
    *nbucketsOut = nbuckets;
}

} // namespace

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() = default;

EventQueue::Node *
EventQueue::beginSchedule(Tick *when)
{
    if (*when < now_) {
        // A past tick is a scheduling bug somewhere above us: fatal in
        // debug builds so tests flush it out; clamped (and counted) in
        // release so a long bench run degrades to FIFO-at-now instead
        // of dying.
#ifndef NDEBUG
        fsim_panic("scheduling into the past (%llu < %llu)",
                   (unsigned long long)*when, (unsigned long long)now_);
#else
        *when = now_;
        ++clampedPast_;
#endif
    }
    ++scheduled_;
    if (opTrace_) {
        opTrace_->push_back(SchedOp{*when - now_, traceRuns_});
        traceRuns_ = 0;
    }
    Node *n = slab_.alloc();
    n->when = *when;
    n->seq = nextSeq_++;
    n->next = nullptr;
    return n;
}

void
EventQueue::finishSchedule(Node *n)
{
    insertNode(n);
    ++size_;
    if (size_ > peakPending_)
        peakPending_ = size_;
}

void
EventQueue::schedule(Tick when, EventFn fn)
{
    Node *n = beginSchedule(&when);
    n->fn = std::move(fn);
    finishSchedule(n);
}

void
EventQueue::insertNode(Node *n)
{
    const Tick when = n->when;

    // 1. Near future: at or before the last event already staged for
    //    dispatch. Sorted insert keeps the bottom dispatch-ready.
    if (!bottom_.empty() && when <= bottomMaxWhen()) {
        insertBottom(n);
        return;
    }

    // 2. Far future: at or past the current epoch boundary.
    if (when >= topStart_) {
        pushTop(n);
        return;
    }

    // 3. Ladder rungs, innermost (narrowest) first: rung spans are
    //    disjoint (an inner rung subdivides a bucket the outer rung
    //    already drained past), so exactly one rung can accept the
    //    event and near-future events — the common case — resolve on
    //    the first probe. Bucketing is a shift: widths are powers of
    //    two.
    for (std::size_t r = activeRungs_; r-- > 0;) {
        Rung &rung = rungs_[r];
        if (when < rung.start || when >= rung.end)
            continue;
        const std::size_t idx =
            static_cast<std::size_t>((when - rung.start) >> rung.shift);
        if (idx < rung.cur)
            continue;   // bucket already drained; belongs further in
        rung.buckets[idx].push(n);
        return;
    }

    // 4. Fallback: earlier than all remaining rung content (e.g. an
    //    event scheduled at now() while the bottom is empty), or the
    //    pure-bottom regime (no rung active).
    insertBottom(n);
}

void
EventQueue::insertBottom(Node *n)
{
    // Descending (when, seq): back of the vector is the next event
    // out. The common case is an append at the back (the new event is
    // the earliest staged), so probe that before binary-searching.
    if (bottom_.empty() ||
        earlier(n->when, n->seq, bottom_.back()->when,
                bottom_.back()->seq)) {
        bottom_.push_back(n);
    } else {
        auto it = std::upper_bound(
            bottom_.begin(), bottom_.end(), n,
            [](const Node *a, const Node *b) {
                return earlier(b->when, b->seq, a->when, a->seq);
            });
        bottom_.insert(it, n);
    }

    // With no rung behind it, the bottom takes every schedule up to
    // its latest event: a few far-future events staged there turn each
    // near-future schedule into a sorted insert into an ever longer
    // array. Past kBottomMax, ladder it.
    if (activeRungs_ == 0 && bottom_.size() > kBottomMax)
        ladderBottom();
    else if (bottom_.size() > peakBottom_)
        peakBottom_ = bottom_.size();
}

void
EventQueue::ladderBottom()
{
    // Only the bottom's own nodes move: O(bottom) per trigger however
    // many events are parked in the top. The bottom is sorted
    // descending, so its span is [back, front].
    const Tick min = bottom_.back()->when;
    const Tick max = bottom_.front()->when;
    Rung &r = openRung(min, max - min, bottom_.size());
    for (Node *n : bottom_)
        r.push(n);
    bottom_.clear();
    // Everything staged was at or before topStart_, so the top still
    // dispatches after the rung. A later schedule at or past the rung's
    // end must too: it is not covered by any bucket and would otherwise
    // fall back into the (now earlier-than-the-rung) bottom.
    if (r.end < topStart_)
        topStart_ = r.end;
}

void
EventQueue::pushTop(Node *n)
{
    n->next = nullptr;
    if (topTail_)
        topTail_->next = n;
    else
        topHead_ = n;
    topTail_ = n;
    ++topCount_;
    if (n->when < topMin_)
        topMin_ = n->when;
    if (n->when > topMax_)
        topMax_ = n->when;
}

void
EventQueue::spillTop()
{
    Node *head = topHead_;
    const std::size_t count = topCount_;
    const Tick min = topMin_;
    const Tick max = topMax_;

    // The next epoch starts past everything we are about to ladder.
    // Events later scheduled at exactly max carry higher seqs, so
    // parking them in the (later-dispatched) fresh top preserves FIFO.
    topHead_ = topTail_ = nullptr;
    topCount_ = 0;
    topMin_ = kTickMax;
    topMax_ = 0;
    topStart_ = max;

    if (count <= kSortThreshold) {
        // Not worth a rung: append the batch raw; the caller
        // (prepareBottom) sorts the staged batch once.
        for (Node *n = head; n;) {
            Node *next = n->next;
            n->next = nullptr;
            bottom_.push_back(n);
            n = next;
        }
        return;
    }

    // Open a fresh outermost rung covering [min, max]. All bucket math
    // is of the form (when - start) >> shift with when <= max, so
    // nothing here can overflow even with ticks near kTickMax.
    fsim_assert(activeRungs_ == 0);
    Rung &r = openRung(min, max - min, count);
    for (Node *n = head; n;) {
        Node *next = n->next;
        r.push(n);
        n = next;
    }
}

EventQueue::Rung &
EventQueue::openRung(Tick start, Tick span, std::size_t count)
{
    if (rungs_.size() < activeRungs_ + 1)
        rungs_.emplace_back();
    Rung &r = rungs_[activeRungs_];
    ++activeRungs_;
    // Aim for about kSortThreshold/2 events per bucket, not one: a
    // drained bucket then yields a full dispatch batch instead of a
    // dribble, so the refill path runs once per ~32 events rather
    // than once or twice per event.
    const std::size_t target =
        std::min(count / (kSortThreshold / 2) + 1, kMaxBucketsPerRung);
    r.start = start;
    setRungGeometry(start, span, target, &r.end, &r.shift, &r.nbuckets);
    r.cur = 0;
    if (r.buckets.size() < r.nbuckets)
        r.buckets.resize(r.nbuckets);
    return r;
}

void
EventQueue::drainBucket(Rung &r, std::size_t idx)
{
    Bucket &b = r.buckets[idx];
    Node *head = b.head;
    const std::size_t count = b.count;
    b.head = b.tail = nullptr;
    b.count = 0;

    // A wide, overfull bucket recurses into a narrower rung; a
    // same-tick or small bucket goes straight to the bottom (seqs
    // are unique and the sort key is (when, seq), so list arrival
    // order never matters for the final order).
    if (r.shift > 0 && count > kSortThreshold &&
        activeRungs_ < kMaxRungs) {
        // The parent bucket covers 2^shift ticks. openRung may grow
        // rungs_ and dangle @p r, so read its geometry first.
        const Tick start = r.start + (static_cast<Tick>(idx) << r.shift);
        const Tick span = (Tick{1} << r.shift) - 1;
        Rung &sub = openRung(start, span, count);
        for (Node *n = head; n;) {
            Node *next = n->next;
            sub.push(n);
            n = next;
        }
        return;
    }

    for (Node *n = head; n;) {
        Node *next = n->next;
        n->next = nullptr;
        bottom_.push_back(n);
        n = next;
    }
}

void
EventQueue::sortBottomSuffix(std::size_t from)
{
    std::sort(bottom_.begin() + static_cast<std::ptrdiff_t>(from),
              bottom_.end(),
              [](const Node *a, const Node *b) {
                  return earlier(b->when, b->seq, a->when, a->seq);
              });
    // Ladder ordering guarantees the refilled suffix is entirely at or
    // after whatever was already staged, so no merge is needed; assert
    // the invariant instead of paying for one.
    fsim_assert(from == 0 || bottom_.size() == from ||
                !earlier(bottom_.back()->when, bottom_.back()->seq,
                         bottom_[from - 1]->when, bottom_[from - 1]->seq));
}

bool
EventQueue::prepareBottom()
{
    if (!bottom_.empty())
        return true;

    // Refill in a batch: keep draining buckets (recursing into or
    // retiring rungs, spilling the top once the ladder runs dry) until
    // kRefillBatch events are staged, then sort once. Buckets hold the
    // earliest remaining events by construction, so a multi-bucket
    // batch is exactly the next kRefillBatch-or-more events.
    while (bottom_.size() < kRefillBatch) {
        if (activeRungs_ > 0) {
            Rung &r = rungs_[activeRungs_ - 1];
            while (r.cur < r.nbuckets && r.buckets[r.cur].count == 0)
                ++r.cur;
            if (r.cur >= r.nbuckets) {
                --activeRungs_;   // exhausted; resume the outer rung
                continue;
            }
            const std::size_t idx = r.cur;
            ++r.cur;   // mark drained before distributing
            drainBucket(r, idx);
            continue;
        }
        if (topCount_ > 0) {
            spillTop();
            continue;
        }
        break;   // ladder fully dry; whatever is staged is everything
    }
    if (bottom_.empty()) {
        // Fully drained: close the epoch so fresh schedules restart in
        // the cheap pure-bottom regime.
        topStart_ = kTickMax;
        return false;
    }
    sortBottomSuffix(0);
    if (bottom_.size() > peakBottom_)
        peakBottom_ = bottom_.size();
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    while (prepareBottom() && bottom_.back()->when <= limit)
        runOne();
    if (now_ < limit)
        now_ = limit;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (runOne())
        ++n;
    return n;
}

} // namespace fsim
