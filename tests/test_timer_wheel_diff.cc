/**
 * @file
 * Differential test: the intrusive-list TimerWheel against the frozen
 * vector-slot wheel (reference_timer_wheel.hh).
 *
 * Both wheels run the same randomized add/cancel/modify/advance
 * sequence. Horizons reach every cascade level and past the clamp, and
 * start jiffies sit just below level boundaries so the run crosses
 * them. Some callbacks cancel, re-arm or add timers while their own due
 * batch is firing. Every committed fingerprint depends on the firing
 * order inside a slot, so both wheels must fire the same keys in the
 * same order and agree on pending(), slotEntries() and cascaded() after
 * every operation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"

#include "reference_timer_wheel.hh"

namespace fsim
{
namespace
{

/** What a timer's callback does to another timer when it fires. */
enum class Act : std::uint8_t
{
    kNone,
    kCancel,   //!< cancel the target
    kRearm,    //!< modify the target to 1 + param jiffies ahead
    kAdd,      //!< arm a fresh plain timer param jiffies ahead
};

struct Action
{
    Act kind = Act::kNone;
    std::uint32_t target = 0;
    std::uint32_t param = 0;
};

/** One wheel plus the key -> handle table its callbacks act through. */
template <typename Wheel>
struct Driver
{
    explicit Driver(std::uint64_t start) : wheel(start) {}

    void
    arm(std::uint32_t key, std::uint64_t expires, Action a)
    {
        const typename Wheel::TimerId id =
            wheel.add(expires, [this, key, a] { onFire(key, a); });
        ids[key] = id;
    }

    void
    onFire(std::uint32_t key, Action a)
    {
        fired.push_back(key);
        switch (a.kind) {
          case Act::kNone:
            break;
          case Act::kCancel:
            wheel.cancel(ids[a.target]);
            break;
          case Act::kRearm:
            wheel.modify(ids[a.target],
                         wheel.currentJiffy() + 1 + a.param);
            break;
          case Act::kAdd: {
            const auto k = static_cast<std::uint32_t>(ids.size());
            ids.push_back(Wheel::kInvalidTimer);
            arm(k, wheel.currentJiffy() + a.param, Action{});
            break;
          }
        }
    }

    Wheel wheel;
    std::vector<typename Wheel::TimerId> ids;
    std::vector<std::uint32_t> fired;
};

/** Expiry offsets that land in tv1, each tvn level, and past the clamp. */
std::uint64_t
drawHorizon(Rng &rng)
{
    static constexpr std::uint64_t kBounds[] = {
        16, 256, 1u << 14, 1u << 20, 1u << 26, 1ull << 34};
    return rng.range(kBounds[rng.range(6)]);
}

struct DiffCase
{
    std::uint64_t seed;
    std::uint64_t start;
};

class TimerWheelVsVectorSlots : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(TimerWheelVsVectorSlots, SameFiringOrder)
{
    const DiffCase dc = GetParam();
    Rng rng(dc.seed);
    Driver<TimerWheel> a(dc.start);
    Driver<ReferenceTimerWheel> b(dc.start);
    std::vector<std::uint64_t> expiryOf;   // per test-armed key

    const auto newKey = [&] {
        const auto k = static_cast<std::uint32_t>(a.ids.size());
        a.ids.push_back(TimerWheel::kInvalidTimer);
        b.ids.push_back(ReferenceTimerWheel::kInvalidTimer);
        expiryOf.push_back(0);
        return k;
    };
    const auto randomKey = [&] {
        return static_cast<std::uint32_t>(rng.range(a.ids.size()));
    };

    for (int step = 0; step < 30000; ++step) {
        const std::uint64_t now = a.wheel.currentJiffy();
        expiryOf.resize(a.ids.size());   // callbacks add keys too
        const std::uint64_t op = rng.range(100);
        if (op < 40 || a.ids.empty()) {
            Action act;
            std::uint64_t expires;
            if (op < 15 && !a.ids.empty()) {
                // A batch member acting on another: share a tight
                // expiry window with a recent key so they fire together.
                const std::uint32_t target = static_cast<std::uint32_t>(
                    a.ids.size() - 1 - rng.range(std::min<std::size_t>(
                                           a.ids.size(), 16)));
                act.kind = static_cast<Act>(1 + rng.range(3));
                act.target = target;
                act.param = static_cast<std::uint32_t>(rng.range(300));
                expires = expiryOf[target] > now && rng.range(2)
                              ? expiryOf[target]
                              : now + rng.range(8);
            } else if (op < 18) {
                expires = now - rng.range(now < 50 ? now + 1 : 50);
            } else {
                expires = now + drawHorizon(rng);
            }
            const std::uint32_t k = newKey();
            expiryOf[k] = expires;
            a.arm(k, expires, act);
            b.arm(k, expires, act);
        } else if (op < 55) {
            const std::uint32_t k = randomKey();
            ASSERT_EQ(a.wheel.cancel(a.ids[k]), b.wheel.cancel(b.ids[k]))
                << "step " << step;
        } else if (op < 75) {
            const std::uint32_t k = randomKey();
            const std::uint64_t expires = now + drawHorizon(rng);
            const bool ok = a.wheel.modify(a.ids[k], expires);
            ASSERT_EQ(ok, b.wheel.modify(b.ids[k], expires))
                << "step " << step;
            if (ok)
                expiryOf[k] = expires;
        } else {
            const std::uint64_t to = now + rng.range(rng.range(8) ? 64 : 4096);
            ASSERT_EQ(a.wheel.advance(to), b.wheel.advance(to))
                << "step " << step;
        }
        ASSERT_EQ(a.wheel.pending(), b.wheel.pending()) << "step " << step;
        ASSERT_EQ(a.wheel.slotEntries(), b.wheel.slotEntries())
            << "step " << step;
        ASSERT_EQ(a.wheel.cascaded(), b.wheel.cascaded())
            << "step " << step;
        ASSERT_EQ(a.fired.size(), b.fired.size()) << "step " << step;
    }
    ASSERT_EQ(a.ids.size(), b.ids.size());
    EXPECT_EQ(a.fired, b.fired);
    // The run must have crossed real cascades and fired real batches.
    EXPECT_GT(a.wheel.cascaded(), 100u);
    EXPECT_GT(a.fired.size(), 5000u);
    for (std::size_t k = 0; k < a.ids.size(); ++k)
        ASSERT_EQ(a.wheel.cancel(a.ids[k]), b.wheel.cancel(b.ids[k]));
    EXPECT_EQ(a.wheel.pending(), 0u);
    EXPECT_EQ(a.wheel.slotEntries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Starts, TimerWheelVsVectorSlots,
    ::testing::Values(DiffCase{1, 0}, DiffCase{7, (1u << 14) - 3000},
                      DiffCase{42, (1u << 20) - 3000},
                      DiffCase{9001, (1ull << 26) - 3000},
                      DiffCase{5, (1ull << 32) - 3000}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return "Seed" + std::to_string(info.param.seed);
    });

} // anonymous namespace
} // namespace fsim
