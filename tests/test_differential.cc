/**
 * @file
 * Differential-oracle tests: base 2.6.32 and Fastsocket must produce
 * identical application-level totals for the same bounded scenario,
 * with clean leak-free quiescence on both sides — while the perf
 * observables move in the paper's direction on a contended machine.
 */

#include <gtest/gtest.h>

#include "check/differential.hh"

namespace fsim
{
namespace
{

TEST(Differential, NginxAppObservablesMatch)
{
    Scenario s;
    s.app = AppKind::kNginx;
    s.cores = 4;
    s.maxConns = 800;
    s.concurrencyPerCore = 40;
    DifferentialOutcome out = runDifferential(s);
    EXPECT_TRUE(out.appMatch()) << out.summary();
    EXPECT_TRUE(out.base.drained);
    EXPECT_TRUE(out.fast.drained);
    EXPECT_EQ(out.base.completed, 800u);
    EXPECT_EQ(out.base.failed, 0u);
    EXPECT_TRUE(out.base.invariants.ok())
        << out.base.invariants.summary();
    EXPECT_TRUE(out.fast.invariants.ok())
        << out.fast.invariants.summary();
    EXPECT_TRUE(out.perfDirectionOk) << out.perfDetail;
    EXPECT_TRUE(out.ok());
}

TEST(Differential, HaproxyAppObservablesMatch)
{
    Scenario s;
    s.app = AppKind::kHaproxy;
    s.cores = 4;
    s.maxConns = 800;
    s.concurrencyPerCore = 40;
    DifferentialOutcome out = runDifferential(s);
    EXPECT_TRUE(out.appMatch()) << out.summary();
    EXPECT_EQ(out.base.completed, 800u);
    EXPECT_TRUE(out.base.invariants.ok())
        << out.base.invariants.summary();
    EXPECT_TRUE(out.fast.invariants.ok())
        << out.fast.invariants.summary();
    EXPECT_TRUE(out.ok());
}

TEST(Differential, KeepAliveWorkloadMatches)
{
    Scenario s;
    s.app = AppKind::kNginx;
    s.cores = 2;
    s.maxConns = 300;
    s.requestsPerConn = 3;
    s.concurrencyPerCore = 25;
    DifferentialOutcome out = runDifferential(s);
    EXPECT_TRUE(out.appMatch()) << out.summary();
    EXPECT_EQ(out.base.responses, 900u) << "3 responses per connection";
}

TEST(Differential, PerfObservablesActuallyDiffer)
{
    // The oracle is only meaningful if the two kernels genuinely take
    // different paths: the baseline must burn lock-wait cycles that
    // Fastsocket's partitioned design avoids.
    Scenario s;
    s.cores = 4;
    s.maxConns = 800;
    DifferentialOutcome out = runDifferential(s);
    EXPECT_GT(out.base.lockWaitTicks, out.fast.lockWaitTicks)
        << out.perfDetail;
    EXPECT_NE(out.base.fingerprint, out.fast.fingerprint);
}

TEST(Differential, MismatchReportingFormat)
{
    DifferentialOutcome out;
    out.base.completed = 100;
    out.fast.completed = 100;
    EXPECT_TRUE(out.appMatch());
    out.mismatches.push_back("completed: 100 (base) vs 99 (fastsocket)");
    EXPECT_FALSE(out.appMatch());
    EXPECT_FALSE(out.ok());
    EXPECT_NE(out.summary().find("MISMATCH"), std::string::npos);
}

} // anonymous namespace
} // namespace fsim
