#include "epollsim/epoll.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace fsim
{

EventPoll::EventPoll(LockRegistry &locks, CacheModel &cache,
                     const CycleCosts &costs)
    : cache_(cache), costs_(costs), tracer_(locks.tracer())
{
    epLock_.init(locks.getClass("ep.lock"), &cache_,
                 costs_.lockAcquireBase, costs_.lockHandoffStorm);
}

void
EventPoll::ensureFd(int fd)
{
    fsim_assert(fd >= 0);
    if (static_cast<std::size_t>(fd) >= interest_.size()) {
        // Double rather than grow to fd+1: fd numbers climb to a
        // high-water mark and recycle, so growth is a warm-up cost.
        const std::size_t cap =
            std::max<std::size_t>(fd + 1, interest_.size() * 2);
        interest_.resize(cap, kUnwatched);
        wakeTicks_.resize(cap, 0);
    }
}

Tick
EventPoll::ctlAdd(CoreId c, Tick t, int fd)
{
    t += costs_.epollCtl;
    Tick end = epLock_.runLocked(c, t, costs_.epollWakeHold);
    ensureFd(fd);
    if (interest_[fd] == kUnwatched)
        ++interestCount_;
    interest_[fd] = kWatched;
    return end;
}

Tick
EventPoll::ctlDel(CoreId c, Tick t, int fd)
{
    t += costs_.epollCtl;
    Tick end = epLock_.runLocked(c, t, costs_.epollWakeHold);
    // Any pending ready entry is left in place and skipped lazily by
    // wait(): an eager O(ready) scan here is quadratic when a worker
    // closes fds while its ready list is deep (million-connection churn).
    if (watching(fd)) {
        interest_[fd] = kUnwatched;
        --interestCount_;
    }
    if (static_cast<std::size_t>(fd) < wakeTicks_.size())
        wakeTicks_[fd] = 0;
    return end;
}

Tick
EventPoll::wake(CoreId c, Tick t, int fd)
{
    if (!watching(fd))
        return t;    // not watched; nothing to do
    Tick penalty = cache_.access(c, readyLine_, /*write=*/true);
    Tick end = epLock_.runLocked(c, t, costs_.epollWakeHold + penalty);
    if (interest_[fd] == kWatched) {
        interest_[fd] = kLinked;
        ready_.push_back(fd);
        if (ready_.size() > readyPeak_)
            readyPeak_ = ready_.size();
        if (tracer_ && tracer_->enabled() && wakeTicks_[fd] == 0)
            wakeTicks_[fd] = end;   // keep the earliest wakeup
    }
    return end;
}

Tick
EventPoll::consumeWakeTick(int fd)
{
    if (fd < 0 || static_cast<std::size_t>(fd) >= wakeTicks_.size())
        return 0;
    Tick t = wakeTicks_[fd];
    wakeTicks_[fd] = 0;
    return t;
}

Tick
EventPoll::wait(CoreId c, Tick t, std::vector<int> &out, int max_events)
{
    t += costs_.epollWaitBase;
    Tick penalty = cache_.access(c, readyLine_, /*write=*/true);
    Tick end = epLock_.runLocked(c, t, costs_.epollWakeHold + penalty);
    while (!ready_.empty() &&
           static_cast<int>(out.size()) < max_events) {
        int fd = ready_.front();
        ready_.pop_front();
        // The linked check matters: a stale entry left by ctlDel must not
        // be delivered against a re-added fd of the same number (the new
        // registration has its own wakeup or none at all).
        if (interest_[fd] == kLinked) {
            interest_[fd] = kWatched;
            out.push_back(fd);
        }
    }
    return end;
}

} // namespace fsim
