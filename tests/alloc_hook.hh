/**
 * @file
 * Global counting allocator hook for allocation-audit tests.
 *
 * Including this header replaces global operator new/delete with
 * versions that forward every allocation to the sim/alloc_audit
 * counters, so AllocAuditScope windows in the binary see real numbers.
 * It defines those operators, so include it from exactly one
 * translation unit of a test binary: the one whose tests audit, where
 * the definitions stay visible and the compiler cannot elide a
 * new/delete pair the test relies on. Forwarding to malloc keeps ASan's
 * interception intact (it wraps malloc), so the audit composes with the
 * sanitizer jobs.
 */

#ifndef FSIM_TESTS_ALLOC_HOOK_HH
#define FSIM_TESTS_ALLOC_HOOK_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/alloc_audit.hh"

namespace
{

// Sizes of the allocations seen while armed (see dumpAllocHistogram).
constexpr std::size_t kHistCap = 512;
std::size_t g_histSize[kHistCap];
std::uint64_t g_histCount[kHistCap];
std::size_t g_histUsed = 0;

void
recordSize(std::size_t n)
{
    for (std::size_t i = 0; i < g_histUsed; ++i)
        if (g_histSize[i] == n) { ++g_histCount[i]; return; }
    if (g_histUsed < kHistCap) {
        g_histSize[g_histUsed] = n;
        g_histCount[g_histUsed] = 1;
        ++g_histUsed;
    }
}

void *
auditedAlloc(std::size_t n)
{
    fsim::AllocAudit::noteHooked();
    if (fsim::AllocAudit::armed())
        recordSize(n);
    fsim::AllocAudit::noteAlloc(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace fsim
{

/** Failure diagnostic: print (and reset) the histogram of allocation
 *  sizes seen while an audit was armed. Sizes identify structures (8 B =
 *  a pointer vector's first growth, 2^n = vector doubling, etc.). */
void
dumpAllocHistogram(const char *tag)
{
    fprintf(stderr, "=== alloc histogram (%s) ===\n", tag);
    for (std::size_t i = 0; i < g_histUsed; ++i)
        fprintf(stderr, "  size %zu x %llu\n", g_histSize[i],
                (unsigned long long)g_histCount[i]);
    g_histUsed = 0;
}

} // namespace fsim

void *
operator new(std::size_t n)
{
    return auditedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return auditedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

#endif // FSIM_TESTS_ALLOC_HOOK_HH
