/**
 * @file
 * Heap-allocation audit hooks for zero-allocation hot-path contracts.
 *
 * The simulator's performance story depends on the event/packet/timer
 * path staying off the allocator in steady state: EventFn capture is
 * inline (event_fn.hh), and event, CPU-task and timer-wheel nodes are
 * slab-recycled.
 * This header is how tests *prove* that: a binary that wants auditing
 * defines global operator new/delete overrides that forward every
 * allocation to noteAlloc()/noteFree() (see tests/test_alloc_audit.cc),
 * and test code brackets a steady-state window with an AllocAuditScope
 * and asserts the counters stayed flat.
 *
 * The counters live here (in fsim_sim) rather than in the test so that
 * bench_sim_core can report them too when built with the hook. Binaries
 * without the override simply never bump the counters; armed() stays
 * usable either way.
 */

#ifndef FSIM_SIM_ALLOC_AUDIT_HH
#define FSIM_SIM_ALLOC_AUDIT_HH

#include <cstddef>
#include <cstdint>

namespace fsim
{

/** Global allocation-counting state; single-threaded like the sim. */
class AllocAudit
{
  public:
    /** Start attributing allocations to the audited window. */
    static void arm();
    /** Stop counting. @return allocations observed while armed. */
    static std::uint64_t disarm();

    static bool armed();
    /** Allocations observed while armed (running value). */
    static std::uint64_t allocs();
    /** Frees observed while armed. */
    static std::uint64_t frees();
    /** Bytes requested by allocations observed while armed. */
    static std::uint64_t allocBytes();

    /** True when this binary's operator new forwards here. */
    static bool hooked();

    /** @name Called from the operator new/delete overrides. */
    /** @{ */
    static void noteHooked();
    static void noteAlloc(std::size_t bytes);
    static void noteFree();
    /** @} */
};

/** RAII window: arms on construction, disarms on destruction. */
class AllocAuditScope
{
  public:
    AllocAuditScope() { AllocAudit::arm(); }
    ~AllocAuditScope() { AllocAudit::disarm(); }
    AllocAuditScope(const AllocAuditScope &) = delete;
    AllocAuditScope &operator=(const AllocAuditScope &) = delete;
};

} // namespace fsim

#endif // FSIM_SIM_ALLOC_AUDIT_HH
