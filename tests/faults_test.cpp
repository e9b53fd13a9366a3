// Fault-injection subsystem tests: the FaultPlan grammar, the FaultInjector
// hook semantics, and the fault-class x substrate grid — every injected
// fault class must end in {solved, degraded-with-verdict, diagnosed-SimError}
// on every substrate it applies to, with the diagnosis localizing the fault.

#include <gtest/gtest.h>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/p2p/knowledge_algs.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "faults/degradation.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "sim/experiment.hpp"

namespace sesp {
namespace {

// --- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlanTest, ParsesFullGrammar) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "crash:0@3,crash:2@5,timing:1@4*8,drop:10%,drop:#7,dup:5%,delay:20%,"
      "extra:3/2,corrupt:15%,corrupt:@9,seed:42",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->crashes.size(), 2u);
  EXPECT_EQ(plan->crashes[0].process, 0);
  EXPECT_EQ(plan->crashes[0].at_step, 3);
  EXPECT_EQ(plan->crashes[1].process, 2);
  ASSERT_EQ(plan->timing.size(), 1u);
  EXPECT_EQ(plan->timing[0].process, 1);
  EXPECT_EQ(plan->timing[0].gap_scale, Ratio(8));
  EXPECT_EQ(plan->messages.drop_percent, 10u);
  ASSERT_EQ(plan->messages.drop_ids.size(), 1u);
  EXPECT_EQ(plan->messages.drop_ids[0], 7);
  EXPECT_EQ(plan->messages.dup_percent, 5u);
  EXPECT_EQ(plan->messages.delay_percent, 20u);
  EXPECT_EQ(plan->messages.extra_delay, Ratio(3, 2));
  EXPECT_EQ(plan->writes.corrupt_percent, 15u);
  ASSERT_EQ(plan->writes.corrupt_at.size(), 1u);
  EXPECT_EQ(plan->writes.corrupt_at[0], 9);
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlanTest, RoundTripsThroughToString) {
  const auto plan =
      FaultPlan::parse("crash:1@2,timing:0@3*1/4,drop:25%,seed:7");
  ASSERT_TRUE(plan.has_value());
  const auto again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_string(), plan->to_string());
}

TEST(FaultPlanTest, RejectsMalformedClauses) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("crash:xyz", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("drop:150%").has_value());
  EXPECT_FALSE(FaultPlan::parse("timing:0@1", nullptr).has_value());
  EXPECT_FALSE(FaultPlan::parse("timing:0@1*0").has_value());
  EXPECT_FALSE(FaultPlan::parse("gremlins:3").has_value());
  EXPECT_FALSE(FaultPlan::parse("noclausehere").has_value());
}

TEST(FaultPlanTest, EmptyTextIsEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->to_string(), "(no faults)");
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  const FaultPlan a = FaultPlan::random(99, 5);
  const FaultPlan b = FaultPlan::random(99, 5);
  EXPECT_EQ(a.to_string(), b.to_string());
}

// --- FaultInjector hook semantics -------------------------------------------

TEST(FaultInjectorTest, CrashIsAbsorbingAndLoggedOnce) {
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, 3});
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.crash_now(0, 2, Time(1)));
  EXPECT_FALSE(inj.crashed(0));
  EXPECT_TRUE(inj.crash_now(0, 3, Time(2)));
  EXPECT_TRUE(inj.crashed(0));
  EXPECT_TRUE(inj.crash_now(0, 4, Time(3)));  // absorbing
  EXPECT_FALSE(inj.crash_now(1, 10, Time(3)));
  EXPECT_EQ(inj.crash_count(), 1);
  EXPECT_EQ(inj.injected(FaultKind::kCrash), 1);
}

TEST(FaultInjectorTest, DropWinsOverDuplicateForSameId) {
  FaultPlan plan;
  plan.messages.drop_ids.push_back(7);
  plan.messages.dup_ids.push_back(7);
  FaultInjector inj(plan);
  const MessageAction act = inj.on_send(7, 0, 1, Time(1));
  EXPECT_TRUE(act.drop);
  EXPECT_FALSE(act.duplicate);
  const MessageAction other = inj.on_send(8, 0, 1, Time(1));
  EXPECT_FALSE(other.drop);
  EXPECT_FALSE(other.duplicate);
  EXPECT_EQ(inj.injected(FaultKind::kDropMessage), 1);
}

TEST(FaultInjectorTest, PerturbScalesTheMatchingGapOnly) {
  FaultPlan plan;
  plan.timing.push_back(TimingFault{0, 1, Ratio(2)});
  FaultInjector inj(plan);
  // Gap 2 scaled by 2: prev 2, scheduled 4 -> 6.
  EXPECT_EQ(inj.perturb_step_time(0, 1, Time(2), Time(4)), Time(6));
  // Wrong step index / process: unchanged.
  EXPECT_EQ(inj.perturb_step_time(0, 2, Time(6), Time(8)), Time(8));
  EXPECT_EQ(inj.perturb_step_time(1, 1, Time(2), Time(4)), Time(4));
  EXPECT_EQ(inj.injected(FaultKind::kTimingViolation), 1);
}

TEST(FaultInjectorTest, CorruptAtIndexesEligibleWrites) {
  FaultPlan plan;
  plan.writes.corrupt_at.push_back(1);
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.corrupt_write(0, 0, Time(1)));
  EXPECT_TRUE(inj.corrupt_write(0, 0, Time(2)));
  EXPECT_FALSE(inj.corrupt_write(0, 0, Time(3)));
  EXPECT_EQ(inj.injected(FaultKind::kWriteCorruption), 1);
}

// --- Outcome classification -------------------------------------------------

TEST(ClassifyOutcomeTest, BucketsAreExhaustiveAndCorrect) {
  Verdict ok;
  ok.admissible = true;
  ok.solves = true;
  EXPECT_EQ(classify_outcome(std::nullopt, ok), RunOutcome::kSolved);

  Verdict partial;
  partial.admissible = true;
  partial.solves = false;
  EXPECT_EQ(classify_outcome(std::nullopt, partial), RunOutcome::kDegraded);

  SimError watchdog;
  watchdog.code = SimErrorCode::kStepLimitExceeded;
  EXPECT_EQ(classify_outcome(watchdog, partial), RunOutcome::kDegraded);
  watchdog.code = SimErrorCode::kNoProgress;
  EXPECT_EQ(classify_outcome(watchdog, partial), RunOutcome::kDegraded);

  SimError structural;
  structural.code = SimErrorCode::kUnknownMessage;
  EXPECT_EQ(classify_outcome(structural, partial), RunOutcome::kDiagnosed);

  Verdict inadmissible;
  inadmissible.admissible = false;
  EXPECT_EQ(classify_outcome(std::nullopt, inadmissible),
            RunOutcome::kDiagnosed);
  // Inadmissibility dominates even a watchdog error.
  watchdog.code = SimErrorCode::kStepLimitExceeded;
  EXPECT_EQ(classify_outcome(watchdog, inadmissible), RunOutcome::kDiagnosed);
}

// --- Fault class x substrate grid -------------------------------------------

// Small semi-synchronous MPM instance used by the MPM grid rows.
struct MpmFixture {
  ProblemSpec spec{3, 3, 2};
  TimingConstraints constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(4));
  // The communicating branch, so message faults have traffic to hit (the
  // step-counting branch sends nothing and trivially shrugs off loss).
  SemiSyncMpmFactory factory{SemiSyncStrategy::kCommunicate};
  MpmRunLimits limits;

  MpmFixture() { limits.max_steps = 30'000; }

  MpmOutcome run(const std::string& faults_text, FaultInjector* out = nullptr,
                 std::vector<ProcessId>* crashed = nullptr) {
    const auto plan = FaultPlan::parse(faults_text);
    EXPECT_TRUE(plan.has_value()) << faults_text;
    FaultInjector local(*plan);
    FaultInjector& inj = out ? *out : local;
    FixedPeriodScheduler sched(spec.n, constraints.c2);
    FixedDelay delay(constraints.d2);
    const MpmOutcome o = run_mpm_once(spec, constraints, factory, sched,
                                      delay, limits, &inj);
    if (crashed) *crashed = o.run.crashed;
    return o;
  }
};

TEST(FaultGridMpm, BaselineSolves) {
  MpmFixture f;
  const MpmOutcome out = f.run("");
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict), RunOutcome::kSolved);
}

TEST(FaultGridMpm, CrashDegrades) {
  MpmFixture f;
  std::vector<ProcessId> crashed;
  const MpmOutcome out = f.run("crash:0@1", nullptr, &crashed);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 0);
  EXPECT_TRUE(out.verdict.admissible)
      << out.verdict.admissibility_violation;  // crash does not bend time
  EXPECT_FALSE(out.verdict.solves);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDegraded);
}

TEST(FaultGridMpm, TotalLossHitsWatchdogAndDegrades) {
  FaultPlan plan;
  plan.messages.drop_percent = 100;
  FaultInjector inj(plan);
  MpmFixture f;
  FixedPeriodScheduler sched(f.spec.n, f.constraints.c2);
  FixedDelay delay(f.constraints.d2);
  const MpmOutcome out = run_mpm_once(f.spec, f.constraints, f.factory, sched,
                                      delay, f.limits, &inj);
  ASSERT_TRUE(out.run.error.has_value());
  EXPECT_TRUE(out.run.hit_limit);
  EXPECT_FALSE(out.verdict.solves);
  EXPECT_GT(inj.injected(FaultKind::kDropMessage), 0);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDegraded);
}

TEST(FaultGridMpm, DuplicationNeverAborts) {
  FaultPlan plan;
  plan.messages.dup_percent = 100;
  plan.messages.extra_delay = Duration(0);
  FaultInjector inj(plan);
  MpmFixture f;
  FixedPeriodScheduler sched(f.spec.n, f.constraints.c2);
  FixedDelay delay(f.constraints.d2);
  const MpmOutcome out = run_mpm_once(f.spec, f.constraints, f.factory, sched,
                                      delay, f.limits, &inj);
  EXPECT_GT(inj.injected(FaultKind::kDuplicateMessage), 0);
  // Duplicates are cloned trace messages, so the trace stays structurally
  // valid; whatever the verdict, the run is classified, never aborted.
  const RunOutcome oc = classify_outcome(out.run.error, out.verdict);
  EXPECT_TRUE(oc == RunOutcome::kSolved || oc == RunOutcome::kDegraded ||
              oc == RunOutcome::kDiagnosed);
  // Every duplicate is a distinct trace message, counted as sent.
  EXPECT_EQ(out.run.trace.messages().size(),
            static_cast<std::size_t>(out.run.messages_sent));
  EXPECT_GE(out.run.messages_sent,
            2 * inj.injected(FaultKind::kDuplicateMessage));
}

TEST(FaultGridMpm, ExtraDelayIsDiagnosedWithSite) {
  FaultPlan plan;
  plan.messages.delay_percent = 100;
  plan.messages.extra_delay = Duration(10);  // pushes past d2 = 4
  FaultInjector inj(plan);
  MpmFixture f;
  FixedPeriodScheduler sched(f.spec.n, f.constraints.c2);
  FixedDelay delay(f.constraints.d2);
  const MpmOutcome out = run_mpm_once(f.spec, f.constraints, f.factory, sched,
                                      delay, f.limits, &inj);
  EXPECT_GT(inj.injected(FaultKind::kDelayMessage), 0);
  EXPECT_FALSE(out.verdict.admissible);
  ASSERT_TRUE(out.verdict.violation_site.has_value());
  EXPECT_NE(out.verdict.violation_site->message, kNoMsg);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDiagnosed);
}

TEST(FaultGridMpm, TimingViolationIsDiagnosedAtTheProcess) {
  MpmFixture f;
  const MpmOutcome out = f.run("timing:1@3*8");
  EXPECT_FALSE(out.verdict.admissible);
  ASSERT_TRUE(out.verdict.violation_site.has_value());
  EXPECT_EQ(out.verdict.violation_site->process, 1);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDiagnosed);
}

TEST(FaultGridMpm, TooFastTimingViolationIsDiagnosed) {
  MpmFixture f;
  const MpmOutcome out = f.run("timing:0@2*1/8");  // gap below c1
  EXPECT_FALSE(out.verdict.admissible);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDiagnosed);
}

// Small semi-synchronous SMM instance for the SMM grid rows.
struct SmmFixture {
  ProblemSpec spec{2, 4, 2};
  TimingConstraints constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2));
  // Communicating branch: port knowledge flows through the broadcast tree,
  // so write corruption and relay crashes have propagation to break.
  SemiSyncSmmFactory factory{SmmSemiSyncStrategy::kCommunicate};
  SmmRunLimits limits;

  SmmFixture() { limits.max_steps = 30'000; }

  SmmOutcome run(FaultInjector* inj) {
    const std::int32_t total = smm_total_processes(spec.n, spec.b);
    FixedPeriodScheduler sched(total, constraints.c2);
    return run_smm_once(spec, constraints, factory, sched, limits, inj);
  }
};

TEST(FaultGridSmm, BaselineSolves) {
  SmmFixture f;
  const SmmOutcome out = f.run(nullptr);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict), RunOutcome::kSolved);
}

TEST(FaultGridSmm, PortCrashDegrades) {
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, 1});
  FaultInjector inj(plan);
  SmmFixture f;
  const SmmOutcome out = f.run(&inj);
  EXPECT_FALSE(out.run.crashed.empty());
  EXPECT_FALSE(out.verdict.solves);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDegraded);
}

TEST(FaultGridSmm, RelayCrashStarvesTheTreeGracefully) {
  SmmFixture f;
  FaultPlan plan;
  // Relays are laid out after the n ports; crash the first relay.
  plan.crashes.push_back(CrashFault{f.spec.n, 1});
  FaultInjector inj(plan);
  const SmmOutcome out = f.run(&inj);
  EXPECT_FALSE(out.run.crashed.empty());
  const RunOutcome oc = classify_outcome(out.run.error, out.verdict);
  EXPECT_NE(oc, RunOutcome::kDiagnosed);  // schedule itself stays admissible
}

TEST(FaultGridSmm, TotalWriteCorruptionDegrades) {
  FaultPlan plan;
  plan.writes.corrupt_percent = 100;
  FaultInjector inj(plan);
  SmmFixture f;
  const SmmOutcome out = f.run(&inj);
  EXPECT_GT(inj.injected(FaultKind::kWriteCorruption), 0);
  EXPECT_NE(classify_outcome(out.run.error, out.verdict), RunOutcome::kSolved);
}

TEST(FaultGridSmm, TimingViolationIsDiagnosed) {
  FaultPlan plan;
  plan.timing.push_back(TimingFault{1, 2, Ratio(8)});
  FaultInjector inj(plan);
  SmmFixture f;
  const SmmOutcome out = f.run(&inj);
  EXPECT_FALSE(out.verdict.admissible);
  ASSERT_TRUE(out.verdict.violation_site.has_value());
  EXPECT_EQ(out.verdict.violation_site->process, 1);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDiagnosed);
}

// Asynchronous P2P ring for the P2P grid rows.
struct P2pFixture {
  ProblemSpec spec{2, 4, 2};
  Topology topo = Topology::ring(4);
  TimingConstraints constraints =
      TimingConstraints::asynchronous(Ratio(2), Ratio(4));
  P2pRoundsFactory factory;
  P2pRunLimits limits;

  P2pFixture() { limits.max_steps = 30'000; }

  P2pOutcome run(FaultInjector* inj) {
    FixedPeriodScheduler sched(spec.n, constraints.c2);
    FixedDelay delay(constraints.d2);
    return run_p2p_once(spec, constraints, topo, factory, sched, delay,
                        limits, inj);
  }
};

TEST(FaultGridP2p, BaselineSolves) {
  P2pFixture f;
  const P2pOutcome out = f.run(nullptr);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict), RunOutcome::kSolved);
}

TEST(FaultGridP2p, CrashDegrades) {
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{1, 1});
  FaultInjector inj(plan);
  P2pFixture f;
  const P2pOutcome out = f.run(&inj);
  ASSERT_FALSE(out.run.crashed.empty());
  EXPECT_EQ(out.run.crashed[0], 1);
  EXPECT_FALSE(out.verdict.solves);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDegraded);
}

TEST(FaultGridP2p, TotalLossDegradesViaWatchdog) {
  FaultPlan plan;
  plan.messages.drop_percent = 100;
  FaultInjector inj(plan);
  P2pFixture f;
  const P2pOutcome out = f.run(&inj);
  ASSERT_TRUE(out.run.error.has_value());
  EXPECT_GT(inj.injected(FaultKind::kDropMessage), 0);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDegraded);
}

TEST(FaultGridP2p, ExtraDelayIsDiagnosed) {
  FaultPlan plan;
  plan.messages.delay_percent = 100;
  plan.messages.extra_delay = Duration(10);
  FaultInjector inj(plan);
  P2pFixture f;
  const P2pOutcome out = f.run(&inj);
  EXPECT_FALSE(out.verdict.admissible);
  EXPECT_EQ(classify_outcome(out.run.error, out.verdict),
            RunOutcome::kDiagnosed);
}

TEST(FaultGridP2p, TimingViolationIsDiagnosed) {
  FaultPlan plan;
  plan.timing.push_back(TimingFault{2, 2, Ratio(8)});
  FaultInjector inj(plan);
  P2pFixture f;
  const P2pOutcome out = f.run(&inj);
  EXPECT_FALSE(out.verdict.admissible);
  ASSERT_TRUE(out.verdict.violation_site.has_value());
  EXPECT_EQ(out.verdict.violation_site->process, 2);
}

// --- Invalid specs are diagnosed, not aborted -------------------------------

TEST(InvalidSpecTest, MpmRejectsNonPositiveN) {
  ProblemSpec bad{2, 0, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(4));
  SemiSyncMpmFactory factory;
  FixedPeriodScheduler sched(1, Ratio(2));
  FixedDelay delay(Ratio(4));
  const MpmOutcome out =
      run_mpm_once(bad, constraints, factory, sched, delay);
  ASSERT_TRUE(out.run.error.has_value());
  EXPECT_EQ(out.run.error->code, SimErrorCode::kInvalidSpec);
  EXPECT_FALSE(out.run.completed);
}

TEST(InvalidSpecTest, P2pRejectsTopologyMismatch) {
  ProblemSpec spec{2, 5, 2};
  Topology topo = Topology::ring(4);  // 4 nodes for n = 5
  const auto constraints =
      TimingConstraints::asynchronous(Ratio(2), Ratio(4));
  P2pRoundsFactory factory;
  FixedPeriodScheduler sched(5, Ratio(2));
  FixedDelay delay(Ratio(4));
  const P2pOutcome out =
      run_p2p_once(spec, constraints, topo, factory, sched, delay);
  ASSERT_TRUE(out.run.error.has_value());
  EXPECT_EQ(out.run.error->code, SimErrorCode::kInvalidSpec);
}

// --- WorstCase limit propagation --------------------------------------------

TEST(WorstCaseLimitTest, LimitHitAlwaysNamesAdversaryAndLimit) {
  const ProblemSpec spec{3, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(4));
  SemiSyncMpmFactory factory;
  MpmRunLimits tiny;
  tiny.max_steps = 5;  // every adversary trips the step budget
  const WorstCase wc =
      mpm_worst_case(spec, constraints, factory, 2, 1234, tiny);
  EXPECT_TRUE(wc.any_hit_limit);
  EXPECT_FALSE(wc.all_solved);
  ASSERT_FALSE(wc.first_limit_hit.empty());
  EXPECT_NE(wc.first_limit_hit.find(to_string(SimErrorCode::kStepLimitExceeded)),
            std::string::npos)
      << wc.first_limit_hit;
  EXPECT_FALSE(wc.first_failure.empty());
}

// --- Degradation sweeps -----------------------------------------------------

TEST(DegradationTest, MpmGridClassifiesEveryCell) {
  const ProblemSpec spec{3, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(4));
  SemiSyncMpmFactory factory;
  MpmRunLimits limits;
  limits.max_steps = 20'000;
  const DegradationReport report = mpm_degradation(
      spec, constraints, factory, {0, 1}, {0, 20}, 0x0FA17'1992ULL, limits);
  EXPECT_EQ(report.substrate, "mpm");
  ASSERT_EQ(report.cells.size(), 4u);
  // Fault-free cell is the baseline and must solve.
  EXPECT_EQ(report.cells[0].crashes, 0);
  EXPECT_EQ(report.cells[0].fault_percent, 0);
  EXPECT_EQ(report.cells[0].outcome, RunOutcome::kSolved);
  EXPECT_EQ(report.cells[0].injected, 0);
  // Crash cells cannot fully solve: the crashed port never idles.
  for (const DegradationCell& cell : report.cells) {
    if (cell.crashes > 0) {
      EXPECT_NE(cell.outcome, RunOutcome::kSolved);
    }
    EXPECT_FALSE(cell.diagnostic.empty());
  }
  EXPECT_EQ(report.count(RunOutcome::kSolved) +
                report.count(RunOutcome::kDegraded) +
                report.count(RunOutcome::kDiagnosed),
            static_cast<std::int32_t>(report.cells.size()));
  EXPECT_NE(report.to_string().find("mpm"), std::string::npos);
}

TEST(DegradationTest, SmmGridClassifiesEveryCell) {
  const ProblemSpec spec{2, 4, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2));
  SemiSyncSmmFactory factory;
  SmmRunLimits limits;
  limits.max_steps = 20'000;
  const DegradationReport report = smm_degradation(
      spec, constraints, factory, {0, 1}, {0, 20}, 0x0FA17'1992ULL, limits);
  EXPECT_EQ(report.substrate, "smm");
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_EQ(report.cells[0].outcome, RunOutcome::kSolved);
  for (const DegradationCell& cell : report.cells) {
    if (cell.crashes > 0) {
      EXPECT_NE(cell.outcome, RunOutcome::kSolved);
    }
    EXPECT_FALSE(cell.diagnostic.empty());
  }
}

// --- Watchdog parity across substrates --------------------------------------

// A scheduler stuck in time: after a first step at t=1, every step lands at
// the previous step's time (a zero-gap livelock) or, with `backwards`, one
// unit before it.
class StuckScheduler final : public StepScheduler {
 public:
  explicit StuckScheduler(bool backwards) : backwards_(backwards) {}
  Time next_step_time(ProcessId, std::optional<Time> prev,
                      std::int64_t) override {
    if (!prev) return Time(1);
    return backwards_ ? *prev - Duration(1) : *prev;
  }

 private:
  bool backwards_;
};

struct WatchdogCase {
  std::string substrate;  // "mpm", "smm" or "p2p"
  SimErrorCode code;
  std::string detail;
  std::int64_t step_index;
  Time time;
  bool hit_limit;
};

void PrintTo(const WatchdogCase& c, std::ostream* os) {
  *os << c.substrate << "/" << to_string(c.code);
}

class WatchdogParity : public ::testing::TestWithParam<WatchdogCase> {};

// Every simulator reaches each watchdog and scheduling error with the same
// diagnosis: a step budget of 5, a model-time budget of 5 (steps every 2),
// a zero-gap livelock cut after 10 stagnant events, and a schedule that
// runs backwards.
TEST_P(WatchdogParity, TripsWithTheSameDiagnosis) {
  const WatchdogCase& c = GetParam();
  RunLimits limits;
  std::unique_ptr<StepScheduler> stuck;
  switch (c.code) {
    case SimErrorCode::kStepLimitExceeded: limits.max_steps = 5; break;
    case SimErrorCode::kTimeLimitExceeded: limits.max_time = Time(5); break;
    case SimErrorCode::kNoProgress:
      limits.max_stagnant_events = 10;
      stuck = std::make_unique<StuckScheduler>(false);
      break;
    default: stuck = std::make_unique<StuckScheduler>(true); break;
  }
  const ProblemSpec spec{3, 4, 2};
  FixedPeriodScheduler periodic(smm_total_processes(spec.n, spec.b),
                                Duration(2));
  StepScheduler& sched = stuck ? *stuck : periodic;
  FixedDelay delay(Duration(4));

  std::optional<SimError> error;
  bool hit_limit = false;
  bool completed = true;
  const auto take = [&](const auto& run) {
    error = run.error;
    hit_limit = run.hit_limit;
    completed = run.completed;
  };
  if (c.substrate == "mpm") {
    SemiSyncMpmFactory factory{SemiSyncStrategy::kCommunicate};
    take(MpmSimulator(spec,
                      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2),
                                                          Ratio(4)),
                      factory, sched, delay)
             .run(limits));
  } else if (c.substrate == "smm") {
    SemiSyncSmmFactory factory{SmmSemiSyncStrategy::kCommunicate};
    take(SmmSimulator(spec,
                      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2)),
                      factory, sched)
             .run(limits));
  } else {
    const Topology ring = Topology::ring(spec.n);
    P2pRoundsFactory factory;
    take(P2pSimulator(spec, TimingConstraints::asynchronous(Ratio(2), Ratio(4)),
                      ring, factory, sched, delay)
             .run(limits));
  }

  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, c.code) << error->to_string();
  EXPECT_EQ(error->detail, c.detail);
  EXPECT_EQ(error->step_index, c.step_index);
  EXPECT_EQ(error->time, std::optional<Time>(c.time));
  EXPECT_EQ(hit_limit, c.hit_limit);
  EXPECT_FALSE(completed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, WatchdogParity,
    ::testing::Values(
        WatchdogCase{"mpm", SimErrorCode::kStepLimitExceeded,
                     "compute-step budget 5 exhausted", 5, Time(4), true},
        WatchdogCase{"mpm", SimErrorCode::kTimeLimitExceeded,
                     "model-time budget 5 exhausted", 8, Time(6), true},
        WatchdogCase{"mpm", SimErrorCode::kNoProgress,
                     "time pinned at t=1 for 11 events", 11, Time(1), true},
        WatchdogCase{"mpm", SimErrorCode::kNonMonotonicSchedule,
                     "scheduled t=0 before t=1", 1, Time(1), false},
        WatchdogCase{"smm", SimErrorCode::kStepLimitExceeded,
                     "compute-step budget 5 exhausted", 5, Time(2), true},
        WatchdogCase{"smm", SimErrorCode::kTimeLimitExceeded,
                     "model-time budget 5 exhausted", 14, Time(6), true},
        WatchdogCase{"smm", SimErrorCode::kNoProgress,
                     "time pinned at t=1 for 11 events", 11, Time(1), true},
        WatchdogCase{"smm", SimErrorCode::kNonMonotonicSchedule,
                     "scheduled t=0 before t=1", 1, Time(1), false},
        WatchdogCase{"p2p", SimErrorCode::kStepLimitExceeded,
                     "compute-step budget 5 exhausted", 5, Time(4), true},
        WatchdogCase{"p2p", SimErrorCode::kTimeLimitExceeded,
                     "model-time budget 5 exhausted", 8, Time(6), true},
        WatchdogCase{"p2p", SimErrorCode::kNoProgress,
                     "time pinned at t=1 for 11 events", 11, Time(1), true},
        WatchdogCase{"p2p", SimErrorCode::kNonMonotonicSchedule,
                     "scheduled t=0 before t=1", 1, Time(1), false}));

}  // namespace
}  // namespace sesp
