/**
 * @file
 * StageScope: the one guard every kernel entry point opens.
 *
 * PhaseAccounting (a core's cycles) and ConnSpanLog (one connection's
 * time) hook the same layer boundaries, so one scope per entry — a
 * syscall, a SoftIRQ packet handler, a slice of app service work —
 * records both. It opens a phase frame when the entry has a phase of
 * its own (syscalls; handlers and app work run in the task loop's root
 * frame). Once bound to a connection it records, at close(), the spans
 * noted with waited() and vfs() in the order noted, the stage span, then
 * the lock waits of the sections run through locked(), as taken.
 *
 * Tick cursors are explicit, so close() takes the final one and returns
 * it (`return sc.close(t);`). A scope destroyed unclosed (an early
 * return) pops its frame with zero self time and records no span; an
 * unbound one (EAGAIN accept, EADDRNOTAVAIL connect) records no span.
 * Retiring a trace (TCB destruction) first records a scope still bound
 * to it, the stage ending where the destruction began, so no entry has
 * to record before it destroys. With tracing off a scope pushes no
 * frame, records and allocates nothing; locked() is the bare lock call.
 */

#ifndef FSIM_TRACE_TRACE_SCOPE_HH
#define FSIM_TRACE_TRACE_SCOPE_HH

#include <cstdint>
#include <optional>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace fsim
{

/** Phase frame plus connection stage span of one kernel entry. */
class StageScope
{
  public:
    /** Open a scope for work on @p core from tick @p begin, plus a
     *  phase frame of @p frame if given; no-op without an enabled
     *  @p tracer. */
    StageScope(Tracer *tracer, CoreId core, Tick begin,
               std::optional<Phase> frame = std::nullopt)
        : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
          core_(core), begin_(begin), framed_(tracer_ && frame)
    {
        if (framed_)
            tracer_->pushPhase(core_, *frame, begin_);
    }

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

    ~StageScope()
    {
        // Unclosed: no span, and the frame pops with zero self time
        // (begin_ is a floor; PhaseAccounting covers nested charges).
        if (tracer_)
            finish(begin_, /*record_spans=*/false);
    }

    bool tracing() const { return tracer_ != nullptr; }

    /** Charge this entry's work to stage @p stage of connection
     *  @p conn, whose trace is open. */
    void
    bind(std::uint64_t conn, ConnStage stage)
    {
        if (!tracer_)
            return;
        if (!bound_) {
            ConnSpanLog &log = tracer_->connSpans();
            next_ = log.scopes_;
            log.scopes_ = this;
            bound_ = true;
        }
        conn_ = conn;
        stage_ = stage;
    }

    /** Open connection @p conn's trace (TCB creation) and bind to it.
     *  The trace opens where the first noted wait began (the steer tick
     *  of a steered packet), else where this entry's work began. */
    void
    open(std::uint64_t conn, ConnStage stage, bool passive,
         std::uint64_t trace_id = 0)
    {
        if (!tracer_)
            return;
        ConnSpanLog &log = tracer_->connSpans();
        log.open(conn, nBefore_ ? before_[0].begin : begin_, passive);
        log.setTraceId(conn, trace_id);
        bind(conn, stage);
    }

    /** The packet this entry handles was software-steered to it from
     *  core @p from at tick @p at; kInvalidCore means it came straight
     *  off its NIC queue. */
    void
    steeredFrom(CoreId from, Tick at)
    {
        if (from != kInvalidCore)
            waited(ConnStage::kCoreTransfer, core_, at, begin_,
                   static_cast<std::uint32_t>(from));
    }

    /** A wait of @p stage on the queue of @p core, [@p begin, @p end],
     *  preceded the stage. */
    void
    waited(ConnStage stage, CoreId core, Tick begin, Tick end,
           std::uint32_t aux = 0)
    {
        if (!tracer_)
            return;
        fsim_assert(nBefore_ < kMaxBefore);
        before_[nBefore_++] = {begin, end, aux, core, stage};
    }

    /** [@p begin, @p end] was VFS socket-file work in mode @p mode
     *  (a VfsMode, kept as the span's aux). @return @p end. */
    template <class Mode>
    Tick
    vfs(Tick begin, Tick end, Mode mode)
    {
        waited(ConnStage::kVfs, core_, begin, end,
               static_cast<std::uint32_t>(mode));
        return end;
    }

    /** Run @p lock's critical section of @p hold cycles from tick @p t
     *  on the scope's core, keeping a spin before it as a lock wait.
     *  @return The section's end tick. */
    template <class Lock>
    Tick
    locked(Lock &lock, Tick t, Tick hold)
    {
        const Tick end = lock.runLocked(core_, t, hold);
        if (tracer_ && lock.lastWait()) {
            fsim_assert(nAfter_ < kMaxAfter);
            after_[nAfter_++] = {t, t + lock.lastWait(),
                                 lock.classTraceId(), core_,
                                 ConnStage::kLockWait};
        }
        return end;
    }

    /** Record the bound stage span ending at @p end and close the
     *  frame there. @return @p end, for `return sc.close(t);`. */
    Tick
    close(Tick end)
    {
        if (tracer_)
            finish(end, /*record_spans=*/true);
        return end;
    }

  private:
    friend class ConnSpanLog;

    /** A noted span. */
    struct Pending
    {
        Tick begin;
        Tick end;
        std::uint32_t aux;
        CoreId core;
        ConnStage stage;
    };

    /** Spans one entry notes: accept() a VFS sub-span and its queue
     *  wait; the rx path two lock waits. */
    static constexpr int kMaxBefore = 2;
    static constexpr int kMaxAfter = 4;

    /** Leave the span log's bound list, first appending the spans to
     *  the trace (the stage ending at @p end) when @p record_spans. */
    void
    unbind(Tick end, bool record_spans)
    {
        ConnSpanLog &log = tracer_->connSpans();
        StageScope **p = &log.scopes_;
        while (*p != this)
            p = &(*p)->next_;
        *p = next_;
        bound_ = false;
        if (!record_spans)
            return;
        for (int i = 0; i < nBefore_; ++i)
            log.add(conn_, before_[i].stage, before_[i].core,
                    before_[i].begin, before_[i].end, before_[i].aux);
        log.add(conn_, stage_, core_, begin_, end);
        for (int i = 0; i < nAfter_; ++i)
            log.add(conn_, after_[i].stage, after_[i].core,
                    after_[i].begin, after_[i].end, after_[i].aux);
    }

    void
    finish(Tick end, bool record_spans)
    {
        if (bound_)
            unbind(end, record_spans);
        if (framed_)
            tracer_->popPhase(core_, end);
        tracer_ = nullptr;
    }

    Tracer *tracer_;           //!< null: not tracing, or closed
    CoreId core_;
    Tick begin_;
    bool framed_;
    bool bound_ = false;
    std::uint8_t nBefore_ = 0;
    std::uint8_t nAfter_ = 0;
    ConnStage stage_ = ConnStage::kSynRx;
    std::uint64_t conn_ = 0;
    StageScope *next_ = nullptr;   //!< ConnSpanLog's bound-scope list
    // Left uninitialized: an entry is written before nBefore_/nAfter_
    // count it, and zeroing them would cost every untraced entry.
    Pending before_[kMaxBefore];
    Pending after_[kMaxAfter];
};

} // namespace fsim

#endif // FSIM_TRACE_TRACE_SCOPE_HH
