/**
 * @file
 * Allocation-free callable storage for simulator hot paths.
 *
 * std::function is the wrong vehicle for a discrete-event simulator's
 * inner loop: libstdc++ gives it 16 bytes of inline storage, so nearly
 * every packet/timer closure (this + a 56-byte Packet, this + a timer
 * callback) lands on the heap — one malloc/free round trip per simulated
 * event. InlineFn is a fixed-capacity alternative: the capture lives
 * inside the object, full stop. A callable that does not fit is a
 * compile error (static_assert), never a silent heap fallback, which is
 * what lets the allocation-audit test pin the whole event/packet/timer
 * path to zero heap traffic.
 *
 * Capacity budgets are chosen per use (see the aliases at the bottom)
 * and documented where they bind:
 *   - EventFn (event queue): 64 bytes — sized by the wire's delivery
 *     closure [this, Packet] = 8 + 56.
 *   - Task (per-core CPU queues): 96 bytes — sized by the RFD steering
 *     closure [this, target, Packet, steer_t, steer_from].
 *   - Timer callbacks: see timer_wheel.hh / timer_base.hh.
 *
 * The buffer is 8-byte aligned, which every capture in the tree
 * (pointers, integers, doubles, Packets) needs and none exceeds: an
 * InlineFn is Cap + 8 bytes with no padding, and so are the slab nodes
 * that embed one (see the static_asserts beside EventQueue::Node,
 * TaskNode and TimerWheel::Node).
 */

#ifndef FSIM_SIM_EVENT_FN_HH
#define FSIM_SIM_EVENT_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/types.hh"

namespace fsim
{

/** Fixed-capacity move/copy-able callable; capture stored inline. */
template <typename Sig, std::size_t Cap>
class InlineFn;

template <typename R, typename... Args, std::size_t Cap>
class InlineFn<R(Args...), Cap>
{
  public:
    static constexpr std::size_t kCapture = Cap;
    /** Alignment of the capture buffer (see the file comment). */
    static constexpr std::size_t kAlign = 8;

    InlineFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    InlineFn(F &&f)   // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(f));
    }

    /**
     * Construct a callable in place (dropping any stored one first).
     * The schedule fast path uses this to build the closure directly
     * inside a recycled event node instead of copying it through a
     * temporary.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Cap,
                      "closure capture exceeds the inline budget of this "
                      "hot path; shrink the capture (capture indices, not "
                      "objects) or raise the documented capacity");
        static_assert(alignof(Fn) <= kAlign, "over-aligned capture");
        static_assert(std::is_copy_constructible_v<Fn>,
                      "captures must be copyable (std::function parity)");
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    InlineFn(InlineFn &&o) noexcept { stealFrom(o); }

    InlineFn(const InlineFn &o)
    {
        if (o.ops_)
            o.ops_->copy(o.buf_, buf_);
        ops_ = o.ops_;
    }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            stealFrom(o);
        }
        return *this;
    }

    InlineFn &
    operator=(const InlineFn &o)
    {
        if (this != &o) {
            reset();
            if (o.ops_)
                o.ops_->copy(o.buf_, buf_);
            ops_ = o.ops_;
        }
        return *this;
    }

    ~InlineFn() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const { return ops_ != nullptr; }

    /**
     * Invoke the stored callable. Const like std::function::operator():
     * the target may still mutate its own captures.
     */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

    /** Drop the stored callable (becomes empty). */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /** Per-type operation table: one static instance per stored type.
     *  move/destroy are null for trivially relocatable/destructible
     *  captures (nearly every simulator closure: pointers, indices,
     *  Packets by value) — the dispatch loop then moves with a fixed
     *  memcpy and skips the destroy call instead of paying an indirect
     *  call per event for a no-op. */
    struct Ops
    {
        R (*invoke)(unsigned char *, Args...);
        void (*move)(unsigned char *, unsigned char *);
        void (*copy)(const unsigned char *, unsigned char *);
        void (*destroy)(unsigned char *);
    };

    template <typename Fn>
    static R
    invokeImpl(unsigned char *buf, Args... args)
    {
        return (*std::launder(reinterpret_cast<Fn *>(buf)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    moveImpl(unsigned char *from, unsigned char *to)
    {
        Fn *src = std::launder(reinterpret_cast<Fn *>(from));
        ::new (static_cast<void *>(to)) Fn(std::move(*src));
        src->~Fn();
    }

    template <typename Fn>
    static void
    copyImpl(const unsigned char *from, unsigned char *to)
    {
        const Fn *src = std::launder(reinterpret_cast<const Fn *>(from));
        ::new (static_cast<void *>(to)) Fn(*src);
    }

    template <typename Fn>
    static void
    destroyImpl(unsigned char *buf)
    {
        std::launder(reinterpret_cast<Fn *>(buf))->~Fn();
    }

    /** memcpy relocation is only valid when both the move and the
     *  abandoned source's destructor are trivial. */
    template <typename Fn>
    static constexpr bool kTrivialReloc =
        std::is_trivially_copyable_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;

    template <typename Fn>
    static constexpr Ops opsFor = {
        /*invoke=*/&invokeImpl<Fn>,
        /*move=*/kTrivialReloc<Fn> ? nullptr : &moveImpl<Fn>,
        /*copy=*/&copyImpl<Fn>,
        /*destroy=*/std::is_trivially_destructible_v<Fn>
            ? nullptr
            : &destroyImpl<Fn>,
    };

    void
    stealFrom(InlineFn &o) noexcept
    {
        if (o.ops_) {
            if (o.ops_->move)
                o.ops_->move(o.buf_, buf_);
            else
                std::memcpy(buf_, o.buf_, Cap);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        } else {
            ops_ = nullptr;
        }
    }

    alignas(kAlign) unsigned char buf_[Cap];
    const Ops *ops_ = nullptr;
};

/**
 * Event-queue handler: the capture budget covers every schedule() site
 * in the tree; the binding site is the wire's delivery closure
 * [this, Packet] (8 + 56 bytes — the Packet carries the 8-byte
 * distributed trace context). Raising this inflates every pending
 * event node, so prefer shrinking captures first.
 */
constexpr std::size_t kEventCaptureMax = 64;
using EventFn = InlineFn<void(), kEventCaptureMax>;

} // namespace fsim

#endif // FSIM_SIM_EVENT_FN_HH
