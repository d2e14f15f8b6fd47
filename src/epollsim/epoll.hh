/**
 * @file
 * Simulated epoll instance.
 *
 * The ready list is guarded by ep.lock, which in the stock kernel is taken
 * from the SoftIRQ context (socket wakeups) *and* from the process context
 * (epoll_wait drain, epoll_ctl) — so without connection locality the two
 * contexts run on different cores and contend, which is the ep.lock row of
 * the paper's Table 1.
 */

#ifndef FSIM_EPOLLSIM_EPOLL_HH
#define FSIM_EPOLLSIM_EPOLL_HH

#include <cstdint>
#include <vector>

#include "cpu/cache_model.hh"
#include "cpu/cycle_costs.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"

namespace fsim
{

class Tracer;

/** One epoll instance (each simulated process owns one). */
class EventPoll
{
  public:
    EventPoll(LockRegistry &locks, CacheModel &cache,
              const CycleCosts &costs);

    /** EPOLL_CTL_ADD. @return completion tick. */
    Tick ctlAdd(CoreId c, Tick t, int fd);

    /** EPOLL_CTL_DEL; also removes any pending ready entry. */
    Tick ctlDel(CoreId c, Tick t, int fd);

    /**
     * Kernel-side wakeup: mark @p fd ready.
     *
     * Duplicate wakeups while the fd is already on the ready list collapse,
     * like the epoll item linked state does.
     *
     * @return completion tick.
     */
    Tick wake(CoreId c, Tick t, int fd);

    /**
     * Process-side epoll_wait: drain up to @p max_events ready fds into
     * @p out (the maxevents argument of the real syscall).
     *
     * @return completion tick.
     */
    Tick wait(CoreId c, Tick t, std::vector<int> &out,
              int max_events = 64);

    bool hasReady() const { return !ready_.empty(); }
    std::size_t interestCount() const { return interestCount_; }

    bool
    watching(int fd) const
    {
        return fd >= 0 &&
               static_cast<std::size_t>(fd) < interest_.size() &&
               interest_[fd] != kUnwatched;
    }

    /** Deepest the ready list ever got — a process-side pressure signal
     *  (a worker whose ready list keeps growing is not keeping up). */
    std::size_t readyPeak() const { return readyPeak_; }

    /**
     * Tick of the earliest un-consumed wakeup on @p fd (0 = none), then
     * forget it. Pure trace bookkeeping for the dispatch-latency span
     * (wakeup -> the app's read syscall); never affects simulation
     * state, and records nothing while tracing is disabled.
     */
    Tick consumeWakeTick(int fd);

  private:
    CacheModel &cache_;
    const CycleCosts &costs_;
    Tracer *tracer_;   //!< borrowed from the lock registry; may be null
    SimSpinLock epLock_;
    CacheLine readyLine_;

    enum : std::uint8_t
    {
        kUnwatched = 0,
        kWatched = 1,    //!< registered, not on the ready list
        kLinked = 2,     //!< registered and linked on the ready list
    };

    /** Grow the fd-indexed tables to cover @p fd (sticky capacity). */
    void ensureFd(int fd);

    /** Watch state per fd. Dense fd-indexed arrays, not hash maps: fds
     *  are small integers recycled by the fd table, and per-connection
     *  map-node churn is exactly what the allocation audit forbids. */
    std::vector<std::uint8_t> interest_;
    std::size_t interestCount_ = 0;
    RingQueue<int> ready_;
    std::size_t readyPeak_ = 0;
    /** fd -> tick of its earliest pending wakeup (trace-only; 0 = none,
     *  wakeups never happen at tick 0). */
    std::vector<Tick> wakeTicks_;
};

} // namespace fsim

#endif // FSIM_EPOLLSIM_EPOLL_HH
