/**
 * @file
 * Differential oracle: run the SAME bounded scenario under the baseline
 * 2.6.32 kernel and under Fastsocket, then compare.
 *
 * The paper's whole claim is that Fastsocket changes *how fast* the
 * kernel serves connections without changing *what* it serves. That
 * split is directly checkable in the simulator: application-level
 * observables (connections completed, responses, bytes delivered to
 * clients) must be bit-identical across kernels, while performance
 * observables (drain time, lock wait cycles) must differ in the paper's
 * direction once enough cores are contended.
 *
 * The workload is a single-machine Scenario (check/scenario.hh); the
 * two runs differ only in its kernel field and go through the fuzzer's
 * own bounded-run driver, runOnMachine().
 *
 * Any app-level mismatch means one of the kernel models corrupted,
 * dropped, or duplicated work — exactly the class of bug a throughput
 * benchmark can never see.
 */

#ifndef FSIM_CHECK_DIFFERENTIAL_HH
#define FSIM_CHECK_DIFFERENTIAL_HH

#include <string>
#include <vector>

#include "check/scenario.hh"

namespace fsim
{

/** Result of one differential run. */
struct DifferentialOutcome
{
    ScenarioRun base;   //!< kernel = "base2632"
    ScenarioRun fast;   //!< kernel = "fastsocket"
    /** App-level observables that differ ("completed: 2000 vs 1999"). */
    std::vector<std::string> mismatches;
    /** Perf moved in the paper's direction (only asserted >= 4 cores:
     *  below that the baseline is not meaningfully contended). */
    bool perfDirectionOk = true;
    std::string perfDetail;

    bool appMatch() const { return mismatches.empty(); }
    bool ok() const
    {
        return appMatch() && perfDirectionOk && base.invariants.ok() &&
               fast.invariants.ok() && base.drained && fast.drained;
    }
    std::string summary() const;
};

/**
 * Run single-machine scenario @p s under both kernels (its kernel field
 * is overridden) and diff the outcomes. A fault plan keeps the
 * app-level equality bar only if its fates cannot depend on kernel
 * speed: wire-fault fates are pure content hashes, and a client RTO
 * well above worst-case latency (20 ms) keeps retransmission decisions
 * loss-driven.
 */
DifferentialOutcome runDifferential(const Scenario &s);

} // namespace fsim

#endif // FSIM_CHECK_DIFFERENTIAL_HH
