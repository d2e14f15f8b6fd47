/**
 * @file
 * Unit tests for number formatting, the table printer and the lock
 * registry.
 */

#include <gtest/gtest.h>

#include "harness/server.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "sync/lock_registry.hh"

namespace fsim
{
namespace
{

TEST(Format, CountSuffixes)
{
    EXPECT_EQ(formatCount(26400000), "26.4M");
    EXPECT_EQ(formatCount(422700), "422.7K");
    EXPECT_EQ(formatCount(868), "868");
    EXPECT_EQ(formatCount(0), "0");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.242), "24.2%");
    EXPECT_EQ(formatPercent(0.0026), "0.3%");
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("name    value"), std::string::npos);
    EXPECT_NE(s.find("a       1"), std::string::npos);
    EXPECT_NE(s.find("longer  22"), std::string::npos);
    EXPECT_NE(s.find("------  -----"), std::string::npos);
}

TEST(TextTable, HandlesRaggedRows)
{
    TextTable t;
    t.header({"a"});
    t.row({"x", "extra"});
    std::string s = t.str();
    EXPECT_NE(s.find("extra"), std::string::npos);
}

TEST(TextTable, NoHeaderNoRule)
{
    TextTable t;
    t.row({"only", "data"});
    std::string s = t.str();
    EXPECT_EQ(s.find('-'), std::string::npos);
}

TEST(LockRegistry, CreatesAndReusesClasses)
{
    LockRegistry reg;
    LockClassStats *a = reg.getClass("slock");
    LockClassStats *b = reg.getClass("slock");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a->name, "slock");
    reg.getClass("ehash.lock");
    EXPECT_EQ(reg.classes().size(), 2u);
}

TEST(LockRegistry, SnapshotAndDelta)
{
    LockRegistry reg;
    LockClassStats *a = reg.getClass("dcache_lock");
    a->contentions = 5;
    auto before = reg.snapshot();
    a->contentions = 30;
    auto d = lockDelta(before, reg.snapshot());
    EXPECT_EQ(d["dcache_lock"].contentions, 25u);
    EXPECT_EQ(d.count("missing"), 0u);
}

} // anonymous namespace
} // namespace fsim
