#include "kernel/timer_base.hh"

#include <utility>

#include "sim/logging.hh"

namespace fsim
{

void
TimerBase::init(CoreId core, LockRegistry &locks, CacheModel &cache,
                const CycleCosts &costs, CpuModel &cpu, Tick jiffy_ticks)
{
    core_ = core;
    cpu_ = &cpu;
    cache_ = &cache;
    costs_ = &costs;
    jiffyTicks_ = jiffy_ticks;
    lock_.init(locks.getClass("base.lock"), &cache, costs.lockAcquireBase,
               costs.lockHandoffStorm);
}

Tick
TimerBase::arm(CoreId c, Tick t, std::uint64_t delay_jiffies, Callback cb,
               TimerWheel::TimerId *id)
{
    fsim_assert(cpu_ != nullptr);
    Tick end = lock_.runLocked(c, t, costs_->timerOpHold);
    // The wheel fires only inside runTick(), which detaches the expired
    // callbacks here and runs them after dropping the base lock.
    *id = wheel_.add(jiffies_ + delay_jiffies,
                     [this, fn = std::move(cb)] { fired_.push_back(fn); });
    ensureTicking();
    return end;
}

Tick
TimerBase::mod(CoreId c, Tick t, TimerWheel::TimerId id,
               std::uint64_t delay_jiffies)
{
    Tick end = lock_.runLocked(c, t, costs_->timerOpHold);
    wheel_.modify(id, jiffies_ + delay_jiffies);
    ensureTicking();
    return end;
}

Tick
TimerBase::cancel(CoreId c, Tick t, TimerWheel::TimerId id)
{
    Tick end = lock_.runLocked(c, t, costs_->timerOpHold);
    wheel_.cancel(id);
    return end;
}

void
TimerBase::ensureTicking()
{
    if (ticking_ || wheel_.pending() == 0)
        return;
    ticking_ = true;
    EventQueue &eq = cpu_->eventQueue();
    eq.schedule(eq.now() + jiffyTicks_, [this] {
        cpu_->post(core_, TaskPrio::kSoftIrq,
                   [this](Tick start) { return runTick(start); });
    });
}

Tick
TimerBase::runTick(Tick start)
{
    // Catch up to the wall-clock jiffy: under SoftIRQ backlog a tick may
    // run late, and like __run_timers() it then processes every elapsed
    // jiffy at once instead of sliding the whole time base.
    std::uint64_t target = start / jiffyTicks_;
    jiffies_ = target > jiffies_ ? target : jiffies_ + 1;
    // Like __run_timers(): the base lock is held only while detaching
    // expired timers from the wheel; callbacks run with the lock dropped,
    // so a large TIME_WAIT reaping batch cannot convoy other cores.
    fired_.clear();
    wheel_.advance(jiffies_);
    Tick locked_end = lock_.runLocked(
        core_, start,
        costs_->timerTickCost + costs_->timerOpHold * fired_.size());

    Tick end = locked_end;
    for (const Callback &fn : fired_)
        end = fn(core_, end);
    fired_.clear();

    if (wheel_.pending() > 0) {
        EventQueue &eq = cpu_->eventQueue();
        eq.schedule(eq.now() + jiffyTicks_, [this] {
            cpu_->post(core_, TaskPrio::kSoftIrq,
                       [this](Tick s) { return runTick(s); });
        });
    } else {
        ticking_ = false;
    }
    return end;
}

} // namespace fsim
