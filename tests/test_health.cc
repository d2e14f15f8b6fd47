/**
 * @file
 * HealthScorer unit tests: the latency-aware outlier machinery in
 * isolation from the balancer (evidence in, verdicts out).
 */

#include <gtest/gtest.h>

#include "fleet/health.hh"

using namespace fsim;

namespace
{

constexpr Tick kTimeout = 1000;

HealthScoreConfig
fastCfg()
{
    HealthScoreConfig cfg;
    cfg.outlierRounds = 3;
    cfg.clearRounds = 2;
    cfg.rampRounds = 4;
    return cfg;
}

/** One probe round: every target answers with its RTT from @p rtts. */
void
probeRound(HealthScorer &hs, const std::vector<Tick> &rtts)
{
    for (int m = 0; m < static_cast<int>(rtts.size()); ++m)
        hs.noteProbeRtt(m, rtts[m]);
}

std::vector<bool>
mask(int n, std::initializer_list<int> downs = {})
{
    std::vector<bool> v(n, true);
    for (int d : downs)
        v[d] = false;
    return v;
}

std::vector<bool>
only(int n, std::initializer_list<int> ups)
{
    std::vector<bool> v(n, false);
    for (int u : ups)
        v[u] = true;
    return v;
}

} // anonymous namespace

TEST(HealthScorer, UniformFleetHasNoOutliers)
{
    HealthScorer hs(fastCfg(), 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    for (int round = 0; round < 10; ++round) {
        probeRound(hs, {100, 110, 105, 95});
        hs.evaluateRound(mask(4), only(4, {}), out);
        for (int m = 0; m < 4; ++m) {
            EXPECT_FALSE(out[m].outlier) << "round " << round;
            EXPECT_FALSE(out[m].ejectable);
        }
    }
}

TEST(HealthScorer, GraySlowTargetBecomesEjectableAfterHysteresis)
{
    HealthScoreConfig cfg = fastCfg();
    HealthScorer hs(cfg, 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    int firstEjectable = -1;
    for (int round = 0; round < 12; ++round) {
        // Target 2 answers *within* the probe timeout — a binary
        // detector sees nothing — but 6x slower than its peers.
        probeRound(hs, {100, 110, 600, 95});
        hs.setRoundTick(1000 * (round + 1));
        hs.evaluateRound(mask(4), only(4, {}), out);
        if (out[2].ejectable && firstEjectable < 0)
            firstEjectable = round;
        EXPECT_FALSE(out[0].ejectable);
        EXPECT_FALSE(out[1].ejectable);
        EXPECT_FALSE(out[3].ejectable);
    }
    ASSERT_GE(firstEjectable, 0) << "gray target never became ejectable";
    // Hysteresis: not before outlierRounds consecutive outlier rounds.
    EXPECT_GE(firstEjectable, cfg.outlierRounds - 1);
    // Detection tick is the streak's FIRST outlier round.
    EXPECT_GT(hs.detectTick(2), 0u);
    EXPECT_LE(hs.detectTick(2),
              static_cast<Tick>(1000) * (firstEjectable + 2 -
                                         cfg.outlierRounds + 1));
}

TEST(HealthScorer, FleetWideSlowdownEjectsNobody)
{
    HealthScorer hs(fastCfg(), 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    for (int round = 0; round < 10; ++round) {
        // Everyone degrades together (e.g. a shared-switch brownout):
        // peer-relative scoring must not evict half the fleet.
        probeRound(hs, {900, 920, 880, 910});
        hs.evaluateRound(mask(4), only(4, {}), out);
        for (int m = 0; m < 4; ++m)
            EXPECT_FALSE(out[m].ejectable) << "m=" << m;
    }
}

TEST(HealthScorer, TimeoutsRaiseScoreFasterThanSlowAnswers)
{
    HealthScorer hs(fastCfg(), 2, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    hs.noteProbeRtt(0, 100);
    hs.noteProbeTimeout(1);
    hs.evaluateRound(mask(2), only(2, {}), out);
    // Timeout counts as timeoutPenalty * kTimeout of RTT plus a failed
    // mini-request; it must dominate a fast answer's score.
    EXPECT_GT(hs.score(1), hs.score(0) + 1.0);
}

TEST(HealthScorer, RequestFailuresAloneMakeAnOutlier)
{
    HealthScorer hs(fastCfg(), 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    bool sawEjectable = false;
    for (int round = 0; round < 10; ++round) {
        probeRound(hs, {100, 105, 102, 99});    // probes all healthy
        for (int m = 0; m < 4; ++m) {
            for (int i = 0; i < 20; ++i)
                hs.noteRequestSent(m);
            // Target 3 drops half its data replies (lossy NIC).
            const int acked = m == 3 ? 10 : 20;
            for (int i = 0; i < acked; ++i)
                hs.noteRequestAcked(m);
        }
        hs.evaluateRound(mask(4), only(4, {}), out);
        sawEjectable = sawEjectable || out[3].ejectable;
        EXPECT_FALSE(out[0].ejectable);
    }
    EXPECT_TRUE(sawEjectable)
        << "success-ratio evidence alone should eject a lossy target";
}

TEST(HealthScorer, ReadmissionNeedsCleanStreakAndInBandScore)
{
    HealthScoreConfig cfg = fastCfg();
    HealthScorer hs(cfg, 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    // Make target 1 sick, then eject it.
    for (int round = 0; round < 5; ++round) {
        probeRound(hs, {100, 0, 105, 98});
        hs.noteProbeTimeout(1);
        hs.evaluateRound(mask(4), only(4, {}), out);
    }
    hs.noteEjected(1);

    // Still gray while down: answers probes but slowly -> never clear.
    for (int round = 0; round < 6; ++round) {
        probeRound(hs, {100, 800, 105, 98});
        hs.evaluateRound(mask(4, {1}), only(4, {1}), out);
        EXPECT_FALSE(out[1].readmittable) << "round " << round;
    }

    // Healed: clean fast probes -> readmittable after clearRounds.
    int clearRoundsSeen = 0;
    bool readmittable = false;
    for (int round = 0; round < 20 && !readmittable; ++round) {
        probeRound(hs, {100, 102, 105, 98});
        hs.evaluateRound(mask(4, {1}), only(4, {1}), out);
        ++clearRoundsSeen;
        readmittable = out[1].readmittable;
    }
    EXPECT_TRUE(readmittable);
    EXPECT_GE(clearRoundsSeen, cfg.clearRounds);
}

TEST(HealthScorer, SlowStartRampGrowsLinearlyAfterReadmission)
{
    HealthScoreConfig cfg = fastCfg();    // rampRounds = 4
    HealthScorer hs(cfg, 2, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    EXPECT_DOUBLE_EQ(hs.steerShare(0), 1.0);    // boot = full share

    hs.noteReadmitted(0);
    EXPECT_DOUBLE_EQ(hs.steerShare(0), 0.25);   // rampRound 0 -> 1/4
    double prev = hs.steerShare(0);
    for (int round = 0; round < 6; ++round) {
        probeRound(hs, {100, 100});
        hs.evaluateRound(mask(2), only(2, {}), out);
        EXPECT_GE(hs.steerShare(0), prev);
        prev = hs.steerShare(0);
    }
    EXPECT_DOUBLE_EQ(prev, 1.0);    // ramp completed
    EXPECT_DOUBLE_EQ(hs.steerShare(1), 1.0);    // peer never ramped
}

TEST(HealthScorer, ProbeTimeoutWhileCandidateResetsClearStreak)
{
    HealthScoreConfig cfg = fastCfg();    // clearRounds = 2
    HealthScorer hs(cfg, 2, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    hs.noteEjected(1);
    // One clean round, then a timed-out probe: the streak must reset
    // to zero and the timeout's EWMA penalty must push readmission out
    // past a from-scratch clean streak.
    probeRound(hs, {100, 100});
    hs.evaluateRound(mask(2, {1}), only(2, {1}), out);
    EXPECT_FALSE(out[1].readmittable);
    EXPECT_EQ(hs.clearStreak(1), 1);
    hs.noteProbeRtt(0, 100);
    hs.noteProbeTimeout(1);
    hs.evaluateRound(mask(2, {1}), only(2, {1}), out);
    EXPECT_FALSE(out[1].readmittable);
    EXPECT_EQ(hs.clearStreak(1), 0);
    int roundsToClear = 0;
    bool readmittable = false;
    for (int round = 0; round < 30 && !readmittable; ++round) {
        probeRound(hs, {100, 100});
        hs.evaluateRound(mask(2, {1}), only(2, {1}), out);
        ++roundsToClear;
        readmittable = out[1].readmittable;
    }
    EXPECT_TRUE(readmittable);
    // The in-band requirement makes the bad probe cost MORE than just
    // restarting the streak: the score EWMA has to decay back first.
    EXPECT_GT(roundsToClear, cfg.clearRounds);
}

TEST(HealthScorer, SteadyGrayTargetDoesNotOscillate)
{
    // Schmitt-trigger regression: a machine pinned just above the
    // ejection band must not readmit while still gray. Once ejected it
    // stops carrying data traffic, so its probe-only evidence looks
    // cleaner than the loaded peers' — before the tightened clear band
    // it flapped eject/readmit every few rounds.
    HealthScoreConfig cfg = fastCfg();
    HealthScorer hs(cfg, 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    // Healthy peers carry real traffic with a few losses; target 2 is
    // gray (RTT just past the band) and gets ejected.
    auto loadedRound = [&](bool twoEjected) {
        probeRound(hs, {100, 110, 500, 95});
        for (int m = 0; m < 4; ++m) {
            if (m == 2 && twoEjected)
                continue;   // no data steered to an ejected target
            for (int i = 0; i < 20; ++i)
                hs.noteRequestSent(m);
            for (int i = 0; i < 19; ++i)    // ~5% background failures
                hs.noteRequestAcked(m);
        }
    };
    bool ejected = false;
    for (int round = 0; round < 10 && !ejected; ++round) {
        loadedRound(false);
        hs.evaluateRound(mask(4), only(4, {}), out);
        ejected = out[2].ejectable;
    }
    ASSERT_TRUE(ejected);
    hs.noteEjected(2);
    // Still gray: across many probe-only rounds it must never clear.
    for (int round = 0; round < 30; ++round) {
        loadedRound(true);
        hs.evaluateRound(mask(4, {2}), only(4, {2}), out);
        EXPECT_FALSE(out[2].readmittable) << "round " << round;
    }
    // Healed: fast probes bring it back through the tighter band.
    bool readmittable = false;
    for (int round = 0; round < 30 && !readmittable; ++round) {
        probeRound(hs, {100, 110, 105, 95});
        hs.evaluateRound(mask(4, {2}), only(4, {2}), out);
        readmittable = out[2].readmittable;
    }
    EXPECT_TRUE(readmittable);
}

TEST(HealthScorer, DeterministicStateHash)
{
    auto run = [] {
        HealthScorer hs(fastCfg(), 3, kTimeout);
        std::vector<HealthScorer::Verdict> out;
        for (int round = 0; round < 5; ++round) {
            probeRound(hs, {100, 500, 120});
            hs.noteRequestSent(0);
            hs.noteRequestAcked(0);
            hs.evaluateRound(mask(3), only(3, {}), out);
        }
        return hs.stateHash();
    };
    const std::uint64_t a = run();
    const std::uint64_t b = run();
    EXPECT_EQ(a, b);
    EXPECT_NE(a, 0u);
}

TEST(HealthScorer, OutOfServiceRoundDropsTheOutlierStreak)
{
    HealthScoreConfig cfg = fastCfg();
    HealthScorer hs(cfg, 4, kTimeout);
    std::vector<HealthScorer::Verdict> out;
    const std::vector<Tick> gray = {100, 110, 600, 95};
    int streak = 0;
    while (streak < cfg.outlierRounds - 1) {
        probeRound(hs, gray);
        hs.evaluateRound(mask(4), only(4, {}), out);
        streak = out[2].outlier ? streak + 1 : 0;
        ASSERT_FALSE(out[2].ejectable);
    }
    // One round draining (or admin-down): no verdict, streaks idle.
    probeRound(hs, gray);
    hs.evaluateRound(mask(4, {2}), only(4, {}), out);
    EXPECT_FALSE(out[2].outlier);
    EXPECT_FALSE(out[2].ejectable);
    EXPECT_FALSE(out[2].readmittable);
    // Back in service, the streak starts over from zero.
    for (int round = 0; round < cfg.outlierRounds; ++round) {
        probeRound(hs, gray);
        hs.evaluateRound(mask(4), only(4, {}), out);
        EXPECT_TRUE(out[2].outlier) << "round " << round;
        EXPECT_EQ(out[2].ejectable, round == cfg.outlierRounds - 1)
            << "round " << round;
    }
}
