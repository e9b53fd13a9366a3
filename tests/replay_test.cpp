#include "sim/replay.hpp"

#include <gtest/gtest.h>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "model/trace_io.hpp"
#include "sim/experiment.hpp"

namespace sesp {
namespace {

TEST(ReplayTest, SmmDeterministicReplayMatches) {
  const ProblemSpec spec{3, 4, 2};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(static_cast<std::size_t>(total), Duration(2)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(total, Duration(2));
  const SmmOutcome out = run_smm_once(spec, constraints, factory, sched);
  ASSERT_TRUE(out.run.completed);

  const ReplayReport report =
      replay_smm(out.run.trace, spec, constraints, factory);
  EXPECT_TRUE(report.match) << report.detail;
}

TEST(ReplayTest, SmmRandomScheduleReplayMatches) {
  const ProblemSpec spec{2, 5, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(4));
  SemiSyncSmmFactory factory(SmmSemiSyncStrategy::kCommunicate);
  UniformGapScheduler sched(Duration(1), Duration(4), /*seed=*/99);
  const SmmOutcome out = run_smm_once(spec, constraints, factory, sched);
  ASSERT_TRUE(out.run.completed);
  const ReplayReport report =
      replay_smm(out.run.trace, spec, constraints, factory);
  EXPECT_TRUE(report.match) << report.detail;
}

TEST(ReplayTest, MpmReplayMatchesIncludingDelays) {
  const ProblemSpec spec{4, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(0), Duration(6));
  SporadicMpmFactory factory;
  BurstyScheduler sched(Duration(1), 1, 4, 9, /*seed=*/7);
  UniformRandomDelay delay(Duration(0), Duration(6), /*seed=*/8);
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, sched, delay);
  ASSERT_TRUE(out.run.completed);

  const ReplayReport report =
      replay_mpm(out.run.trace, spec, constraints, factory);
  EXPECT_TRUE(report.match) << report.detail;
}

TEST(ReplayTest, SurvivesSerializationRoundTrip) {
  const ProblemSpec spec{3, 3, 2};
  const auto constraints = TimingConstraints::asynchronous(2, 5);
  AsyncMpmFactory factory;
  FixedPeriodScheduler sched(spec.n, Duration(2));
  FixedDelay delay{Duration(5)};
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, sched, delay);
  ASSERT_TRUE(out.run.completed);

  std::string error;
  const auto parsed = trace_from_text(to_text(out.run.trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const ReplayReport report = replay_mpm(*parsed, spec, constraints, factory);
  EXPECT_TRUE(report.match) << report.detail;
}

TEST(ReplayTest, DetectsWrongAlgorithm) {
  // A trace recorded from A(sp) does not replay as the sync algorithm.
  const ProblemSpec spec{3, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(1), Duration(4));
  SporadicMpmFactory recorded_with;
  FixedPeriodScheduler sched(spec.n, Duration(1));
  FixedDelay delay{Duration(4)};
  const MpmOutcome out =
      run_mpm_once(spec, constraints, recorded_with, sched, delay);
  ASSERT_TRUE(out.run.completed);

  SyncMpmFactory impostor;
  const ReplayReport report =
      replay_mpm(out.run.trace, spec, constraints, impostor);
  EXPECT_FALSE(report.match);
  EXPECT_FALSE(report.detail.empty());
}

TEST(ReplayTest, DetectsTamperedTrace) {
  const ProblemSpec spec{2, 4, 2};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(static_cast<std::size_t>(total), Duration(1)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(total, Duration(1));
  SmmOutcome out = run_smm_once(spec, constraints, factory, sched);
  ASSERT_TRUE(out.run.completed);

  // Tamper: claim a different digest on some mid-trace step.
  TimedComputation tampered(Substrate::kSharedMemory,
                            out.run.trace.num_processes(),
                            out.run.trace.num_ports());
  for (std::size_t i = 0; i < out.run.trace.steps().size(); ++i) {
    StepRecord st = out.run.trace.steps()[i];
    if (i == out.run.trace.steps().size() / 2) st.value_after_digest ^= 1;
    tampered.append(st);
  }
  const ReplayReport report =
      replay_smm(tampered, spec, constraints, factory);
  EXPECT_FALSE(report.match);
  EXPECT_EQ(report.divergence, out.run.trace.steps().size() / 2);
}

// Replays of crafted traces: the schedule and delays come from the trace,
// so every reference in it is checked before use.
ReplayReport replay_async_text(const std::string& text) {
  std::string error;
  const auto trace = trace_from_text(text, &error);
  EXPECT_TRUE(trace.has_value()) << error;
  if (!trace) return {};
  AsyncMpmFactory factory;
  return replay_mpm(*trace, ProblemSpec{2, 2, 2},
                    TimingConstraints::asynchronous(2, 4), factory);
}

// A message whose deliver or send step lies outside the trace replays as
// never delivered, and the trace is a plain mismatch.
TEST(ReplayTest, OutOfRangeMessageStepsReplayAsUndelivered) {
  const std::string head =
      "sesp-trace v1\nmeta,mpm,2,2\nstep,c,0,1,0,-1,-1,0,0,0\n";
  for (const std::string msg : {"msg,0,1,0,4000000000,-,0,0,0\n",
                                "msg,0,1,4000000000,0,-,0,0,0\n",
                                "msg,0,1,18446744073709551614,1,-,0,0,0\n"}) {
    const ReplayReport report = replay_async_text(head + msg);
    EXPECT_FALSE(report.match) << msg;
    EXPECT_EQ(report.divergence, 1u) << msg << report.detail;
  }
}

// A delivery recorded before its own send would be a negative delay; the
// replay must not schedule into the past to reproduce it.
TEST(ReplayTest, DeliveryBeforeSendIsNotReplayed) {
  const ReplayReport report = replay_async_text(
      "sesp-trace v1\nmeta,mpm,2,2\nstep,c,0,4,0,-1,-1,0,0,0\n"
      "step,d,-1,1,-1,-1,0,0,0,0\nmsg,0,0,0,1,-,0,0,0\n");
  EXPECT_FALSE(report.match);
  EXPECT_EQ(report.divergence, 1u) << report.detail;
}

// The schedule is sized by the run, not by the trace: a huge declared
// process count and steps of processes the run does not have are ignored.
TEST(ReplayTest, ForeignProcessesAndCountsAreIgnored) {
  const ReplayReport report = replay_async_text(
      "sesp-trace v1\nmeta,mpm,2000000000,2\nstep,c,-7,1,0,-1,-1,0,0,0\n"
      "step,c,2147483647,1,0,-1,-1,0,0,0\n");
  EXPECT_FALSE(report.match);
  EXPECT_EQ(report.divergence, 0u) << report.detail;
}

}  // namespace
}  // namespace sesp
