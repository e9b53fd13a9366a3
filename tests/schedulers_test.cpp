#include <gtest/gtest.h>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"

namespace sesp {
namespace {

TEST(FixedPeriodSchedulerTest, ExactGrid) {
  FixedPeriodScheduler sched({Duration(2), Duration(3)});
  EXPECT_EQ(sched.next_step_time(0, std::nullopt, 0), Time(2));
  EXPECT_EQ(sched.next_step_time(0, Time(2), 1), Time(4));
  EXPECT_EQ(sched.next_step_time(1, std::nullopt, 0), Time(3));
  EXPECT_EQ(sched.next_step_time(1, Time(3), 1), Time(6));
}

TEST(FixedPeriodSchedulerTest, UniformConstructor) {
  FixedPeriodScheduler sched(3, Duration(5, 2));
  for (ProcessId p = 0; p < 3; ++p)
    EXPECT_EQ(sched.next_step_time(p, std::nullopt, 0), Time(5, 2));
}

TEST(UniformGapSchedulerTest, GapsWithinWindow) {
  UniformGapScheduler sched(Duration(1), Duration(3), /*seed=*/11);
  Time prev(0);
  for (int i = 0; i < 200; ++i) {
    const Time next = sched.next_step_time(0, i == 0 ? std::nullopt
                                                     : std::optional<Time>(prev),
                                           i);
    const Duration gap = next - prev;
    EXPECT_GE(gap, Duration(1));
    EXPECT_LE(gap, Duration(3));
    prev = next;
  }
}

// The adversaries' cached grid draws must reproduce, on the same seed, the
// uncached formula lo + (hi - lo) * k/grid draw for draw.
Ratio grid_point(Rng& rng, const Ratio& lo, const Ratio& hi,
                 std::uint32_t grid) {
  const auto k = static_cast<std::int64_t>(rng.next_grid_index(grid));
  return lo + (hi - lo) * Ratio(k, static_cast<std::int64_t>(grid));
}

TEST(UniformGapSchedulerTest, GapsMatchGridFormula) {
  const Duration lo(1, 3), hi(7, 2);
  for (const std::uint32_t grid : {1u, 4u, 16u, 64u}) {
    UniformGapScheduler sched(lo, hi, /*seed=*/40 + grid, grid);
    Rng reference(40 + grid);
    Time prev(0);
    for (int i = 0; i < 300; ++i) {
      const Time next = sched.next_step_time(
          0, i == 0 ? std::nullopt : std::optional<Time>(prev), i);
      ASSERT_EQ(next - prev, grid_point(reference, lo, hi, grid))
          << "grid " << grid << " step " << i;
      prev = next;
    }
  }
}

TEST(UniformGapSchedulerTest, GridZeroAlwaysStepsAtLo) {
  UniformGapScheduler sched(Duration(2), Duration(5), /*seed=*/3, /*grid=*/0);
  EXPECT_EQ(sched.next_step_time(0, std::nullopt, 0), Time(2));
  EXPECT_EQ(sched.next_step_time(0, Time(2), 1), Time(4));
}

TEST(BurstySchedulerTest, GapsAtLeastC1AndSometimesStall) {
  BurstyScheduler sched(Duration(2), 1, 4, 10, /*seed=*/3);
  Time prev(0);
  bool stalled = false;
  for (int i = 0; i < 300; ++i) {
    const Time next = sched.next_step_time(
        0, i == 0 ? std::nullopt : std::optional<Time>(prev), i);
    const Duration gap = next - prev;
    EXPECT_GE(gap, Duration(2));
    if (gap == Duration(20)) stalled = true;
    prev = next;
  }
  EXPECT_TRUE(stalled);
}

TEST(SlowOneSchedulerTest, OnlyVictimSlowed) {
  SlowOneScheduler sched(3, Duration(1), /*slow=*/1, Duration(7));
  EXPECT_EQ(sched.next_step_time(0, std::nullopt, 0), Time(1));
  EXPECT_EQ(sched.next_step_time(1, std::nullopt, 0), Time(7));
  EXPECT_EQ(sched.next_step_time(2, Time(4), 4), Time(5));
  EXPECT_EQ(sched.next_step_time(1, Time(7), 1), Time(14));
}

TEST(ScriptedSchedulerTest, FollowsScriptThenTail) {
  ScriptedScheduler sched({{Time(1), Time(5), Time(6)}}, Duration(2));
  EXPECT_EQ(sched.next_step_time(0, std::nullopt, 0), Time(1));
  EXPECT_EQ(sched.next_step_time(0, Time(1), 1), Time(5));
  EXPECT_EQ(sched.next_step_time(0, Time(5), 2), Time(6));
  // Script exhausted: tail gap.
  EXPECT_EQ(sched.next_step_time(0, Time(6), 3), Time(8));
  // Unknown process: tail gap from the start.
  EXPECT_EQ(sched.next_step_time(9, std::nullopt, 0), Time(2));
}

// Only ids the script covers follow it; a negative or very large process id
// and an out-of-range step index take the tail gap.
TEST(ScriptedSchedulerTest, OutOfRangeProcessesFallBackToTail) {
  ScriptedScheduler sched({{Time(1), Time(5)}}, Duration(2));
  EXPECT_EQ(sched.next_step_time(-7, std::nullopt, 0), Time(2));
  EXPECT_EQ(sched.next_step_time(INT32_MIN, Time(3), 0), Time(5));
  EXPECT_EQ(sched.next_step_time(INT32_MAX, std::nullopt, 0), Time(2));
  EXPECT_EQ(sched.next_step_time(1, Time(4), 1), Time(6));
  EXPECT_EQ(sched.next_step_time(0, Time(5), -1), Time(7));
  EXPECT_EQ(sched.next_step_time(0, Time(5), INT64_MAX), Time(7));
  EXPECT_EQ(sched.next_step_time(0, std::nullopt, 1), Time(5));
}

TEST(FixedDelayTest, Constant) {
  FixedDelay d(Duration(4));
  EXPECT_EQ(d.delay(0, 1, Time(10), 0), Duration(4));
}

TEST(UniformRandomDelayTest, WithinWindow) {
  UniformRandomDelay d(Duration(1), Duration(4), /*seed=*/17);
  for (int i = 0; i < 200; ++i) {
    const Duration v = d.delay(0, 1, Time(i), i);
    EXPECT_GE(v, Duration(1));
    EXPECT_LE(v, Duration(4));
  }
}

TEST(UniformRandomDelayTest, DegenerateWindow) {
  UniformRandomDelay d(Duration(3), Duration(3), 1);
  EXPECT_EQ(d.delay(0, 1, Time(0), 0), Duration(3));
}

TEST(UniformRandomDelayTest, DelaysMatchGridFormula) {
  const Duration d1(0), d2(9, 4);
  for (const std::uint32_t grid : {1u, 4u, 16u, 64u}) {
    UniformRandomDelay d(d1, d2, /*seed=*/70 + grid, grid);
    Rng reference(70 + grid);
    for (int i = 0; i < 300; ++i)
      ASSERT_EQ(d.delay(0, 1, Time(i), i), grid_point(reference, d1, d2, grid))
          << "grid " << grid << " message " << i;
  }
}

TEST(StragglerDelayTest, VictimGetsSlowPath) {
  StragglerDelay d(/*victim=*/2, Duration(1), Duration(9));
  EXPECT_EQ(d.delay(0, 2, Time(0), 0), Duration(9));
  EXPECT_EQ(d.delay(0, 1, Time(0), 1), Duration(1));
  EXPECT_EQ(d.delay(2, 0, Time(0), 2), Duration(1));
}

}  // namespace
}  // namespace sesp
