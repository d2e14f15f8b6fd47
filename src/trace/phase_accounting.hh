/**
 * @file
 * Cycle attribution by execution phase.
 *
 * Every simulated core carries a stack of open phase frames (pushed and
 * popped by StageScope guards or directly by the CPU model's task loop).
 * When a frame closes, the cycles it spanned minus the cycles already
 * attributed to nested frames and direct charges — its *self time* — are
 * charged to the frame's phase and to the folded call-stack key, giving
 * flamegraph-ready output. Direct charges (lock spinning, cache-line
 * stalls) are attributed immediately at the point the simulator computes
 * them, so a lock spin inside a SoftIRQ is charged to lock-spin, not
 * SoftIRQ.
 *
 * The invariant the tests pin: the sum of all charged cycles equals the
 * total busy cycles the CPU model measured, because every frame is
 * opened/closed at task boundaries and every inner charge is contained
 * in its enclosing frame's span.
 */

#ifndef FSIM_TRACE_PHASE_ACCOUNTING_HH
#define FSIM_TRACE_PHASE_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "trace/trace_event.hh"

namespace fsim
{

/** Point-in-time copy of all phase counters, diffable for windows. */
struct PhaseSnapshot
{
    /** Per-core charged cycles, indexed by Phase (idle stays 0). */
    std::vector<std::array<std::uint64_t, kNumChargedPhases>> perCore;
    /** Folded-stack key -> cycles (see PhaseAccounting::foldedKey). */
    std::map<std::uint64_t, std::uint64_t> folded;
    /** Cycles charged while no frame was open (setup-phase work). */
    std::uint64_t untracked = 0;
};

/** Window delta @p after - @p before (saturating at zero). */
PhaseSnapshot phaseDelta(const PhaseSnapshot &before,
                         const PhaseSnapshot &after);

/** Decode a folded-stack key to "app;syscall;lock-spin" form. */
std::string decodeFoldedKey(std::uint64_t key);

/** Per-core phase stacks and counters. */
class PhaseAccounting
{
  public:
    explicit PhaseAccounting(int n_cores);

    /** Open a frame of @p p on @p c starting at tick @p t. */
    void push(CoreId c, Phase p, Tick t);

    /**
     * Close the innermost frame on @p c at tick @p t, charging its self
     * time (span minus nested/direct charges) to its phase.
     */
    void pop(CoreId c, Tick t);

    /**
     * Charge @p cycles of @p p immediately (lock spin, cache stall).
     *
     * The charge is added to the enclosing frame's child total so the
     * frame's own self time shrinks by the same amount. With no open
     * frame the cycles are not core-attributable work (setup phase) and
     * only count toward the untracked total.
     */
    void charge(CoreId c, Phase p, Tick cycles);

    /** Open frames on @p c (diagnostics / tests). */
    int depth(CoreId c) const
    {
        return static_cast<int>(stacks_[c].size());
    }

    PhaseSnapshot snapshot() const;

    int numCores() const { return static_cast<int>(counts_.size()); }

  private:
    struct Frame
    {
        Phase phase;
        Tick begin;
        Tick child = 0;          //!< cycles attributed within this frame
        std::uint32_t node = 0;  //!< folded-stack node of this frame
    };

    /** One folded stack seen so far: a node of the trie of open-frame
     *  phase paths, so a charge indexes its counter without a lookup. */
    struct FoldedNode
    {
        static constexpr std::uint32_t kNone = ~std::uint32_t{0};

        std::uint64_t key = 0;   //!< folded key of the path
        std::uint64_t cycles = 0;
        std::array<std::uint32_t, kNumChargedPhases> child;

        FoldedNode() { child.fill(kNone); }
    };

    /** Folded key of @p p nested under @p parent (4 bits per level). */
    static std::uint64_t
    foldedKey(std::uint64_t parent, Phase p)
    {
        return (parent << 4) |
               (static_cast<std::uint64_t>(p) + 1);
    }

    /** Node of @p p nested under node @p parent, created on first use. */
    std::uint32_t childNode(std::uint32_t parent, Phase p);

    std::vector<std::vector<Frame>> stacks_;
    std::vector<std::array<std::uint64_t, kNumChargedPhases>> counts_;
    /** Node 0 is the empty stack (key 0). */
    std::vector<FoldedNode> folded_;
    std::uint64_t untracked_ = 0;
};

} // namespace fsim

#endif // FSIM_TRACE_PHASE_ACCOUNTING_HH
