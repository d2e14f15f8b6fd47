/**
 * @file
 * Differential test: the single-copy TimeWaitTable against the frozen
 * two-copy table (reference_time_wait.hh).
 *
 * Both tables run the same randomized add/find/remove/headExpiry/reap
 * sequence. Fill phases draw from thousands of tuples, so the rings
 * grow through several doublings; churn phases draw from a few dozen,
 * so removed tuples come back, into the bucket they left (behind their
 * own stale slot) and into another one, while the rings' fronts wrap.
 * Every result must match at every step: find's entry, remove's return
 * and copy, headExpiry, reapExpired's head and reaped entries in order,
 * size and peakSize.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "conn/time_wait.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

#include "reference_time_wait.hh"

namespace fsim
{
namespace
{

constexpr int kBuckets = 3;
constexpr std::uint64_t kLinger = 64;

FiveTuple
tupleOf(std::uint64_t i)
{
    FiveTuple t;
    t.saddr = 0x0a000000 + static_cast<IpAddr>(i / 251);
    t.daddr = 0xc0a80001;
    t.sport = static_cast<Port>(1024 + i % 251);
    t.dport = 80;
    return t;
}

bool
same(const TimeWaitTable::Entry *a, const ReferenceTimeWaitTable::Entry *b)
{
    if (!a || !b)
        return a == nullptr && b == nullptr;
    return a->tuple == b->tuple && a->expires == b->expires &&
           a->holdsPort == b->holdsPort;
}

class TimeWaitVsTwoCopyTable : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TimeWaitVsTwoCopyTable, SameResultsAtEveryStep)
{
    Rng rng(GetParam());
    TimeWaitTable a(kBuckets);
    ReferenceTimeWaitTable b(kBuckets);
    std::uint64_t now = 0;
    std::vector<TimeWaitTable::Entry> reapedA;
    std::vector<ReferenceTimeWaitTable::Entry> reapedB;
    // Bucket each tuple was last removed from by remove(), or -1.
    std::vector<int> removedFrom(8192, -1);
    std::vector<int> bucketOf(8192, -1);
    std::uint64_t readdSame = 0, readdOther = 0, reapedTotal = 0;

    for (int step = 0; step < 200'000; ++step) {
        // Alternate 20K-step fill and churn phases.
        const bool fill = (step / 20'000) % 2 == 0;
        const std::uint64_t pool = fill ? 8192 : 48;
        const std::uint64_t i = rng.range(pool);
        const FiveTuple t = tupleOf(i);
        const int bucket = static_cast<int>(rng.range(kBuckets));
        const std::uint64_t op = rng.range(100);

        if (op < (fill ? 60u : 35u)) {
            if (!b.find(t)) {
                const bool holds = rng.range(2) != 0;
                if (removedFrom[i] >= 0)
                    ++(removedFrom[i] == bucket ? readdSame : readdOther);
                removedFrom[i] = -1;
                bucketOf[i] = bucket;
                a.add(bucket, t, now + kLinger, holds);
                b.add(bucket, t, now + kLinger, holds);
            }
        } else if (op < 55) {
            ASSERT_TRUE(same(a.find(t), b.find(t))) << "find, step " << step;
        } else if (op < 70) {
            if (rng.range(2)) {
                TimeWaitTable::Entry outA;
                ReferenceTimeWaitTable::Entry outB;
                const bool hit = a.remove(t, &outA);
                ASSERT_EQ(hit, b.remove(t, &outB)) << "remove, step " << step;
                if (hit) {
                    ASSERT_TRUE(same(&outA, &outB)) << "step " << step;
                    removedFrom[i] = bucketOf[i];
                }
            } else {
                const bool hit = a.remove(t);
                ASSERT_EQ(hit, b.remove(t)) << "remove, step " << step;
                if (hit)
                    removedFrom[i] = bucketOf[i];
            }
        } else if (op < 80) {
            ASSERT_EQ(a.headExpiry(bucket), b.headExpiry(bucket))
                << "headExpiry, step " << step;
        } else if (op < (fill ? 83u : 92u)) {
            reapedA.clear();
            reapedB.clear();
            ASSERT_EQ(a.reapExpired(bucket, now, reapedA),
                      b.reapExpired(bucket, now, reapedB))
                << "reap, step " << step;
            ASSERT_EQ(reapedA.size(), reapedB.size()) << "step " << step;
            for (std::size_t k = 0; k < reapedA.size(); ++k)
                ASSERT_TRUE(same(&reapedA[k], &reapedB[k]))
                    << "reaped " << k << ", step " << step;
            reapedTotal += reapedA.size();
        } else if (!fill || rng.range(8) == 0) {
            now += rng.range(4);
        }
        ASSERT_EQ(a.size(), b.size()) << "step " << step;
        ASSERT_EQ(a.peakSize(), b.peakSize()) << "step " << step;
    }

    // Drain: every bucket reaps the same rest in the same order.
    for (int bk = 0; bk < kBuckets; ++bk) {
        reapedA.clear();
        reapedB.clear();
        ASSERT_EQ(a.reapExpired(bk, kTickMax, reapedA),
                  b.reapExpired(bk, kTickMax, reapedB));
        ASSERT_EQ(reapedA.size(), reapedB.size());
        for (std::size_t k = 0; k < reapedA.size(); ++k)
            ASSERT_TRUE(same(&reapedA[k], &reapedB[k]));
    }
    EXPECT_EQ(a.size(), 0u);

    // The sequence reached what it is meant to cover: rings grown well
    // past their first capacity, removed tuples back in both the same
    // and another bucket, and real reaping.
    EXPECT_GT(a.peakSize(), 1000u);
    EXPECT_GT(readdSame, 100u);
    EXPECT_GT(readdOther, 100u);
    EXPECT_GT(reapedTotal, 10'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeWaitVsTwoCopyTable,
                         ::testing::Values(1, 7, 42),
                         [](const ::testing::TestParamInfo<std::uint64_t> &i) {
                             return "Seed" + std::to_string(i.param);
                         });

} // namespace
} // namespace fsim
