#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/broken_algs.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"
#include "analysis/report.hpp"

namespace sesp {
namespace {

TEST(ExperimentTest, WorstCaseAggregatesSyncMpm) {
  const ProblemSpec spec{3, 3, 2};
  const auto constraints = TimingConstraints::synchronous(2, 4);
  SyncMpmFactory factory;
  const WorstCase wc = mpm_worst_case(spec, constraints, factory);
  EXPECT_EQ(wc.runs, 1);  // synchronous has a unique schedule
  EXPECT_TRUE(wc.all_admissible);
  EXPECT_TRUE(wc.all_solved);
  EXPECT_FALSE(wc.any_hit_limit);
  EXPECT_EQ(wc.min_sessions, 3);
  EXPECT_EQ(wc.max_termination, Time(6));
  EXPECT_TRUE(wc.first_failure.empty());
}

TEST(ExperimentTest, WorstCaseRecordsFailures) {
  const ProblemSpec spec{4, 3, 2};
  // Broken algorithm under the periodic model: one process slowed.
  std::vector<Duration> periods(3, Duration(1));
  periods[0] = Duration(50);
  const auto constraints = TimingConstraints::periodic(periods, Duration(1));
  NoWaitPeriodicMpmFactory broken;
  const WorstCase wc = mpm_worst_case(spec, constraints, broken);
  EXPECT_TRUE(wc.all_admissible);
  EXPECT_FALSE(wc.all_solved);
  EXPECT_LT(wc.min_sessions, 4);
  EXPECT_FALSE(wc.first_failure.empty());
}

TEST(ExperimentTest, SmmWorstCaseRuns) {
  const ProblemSpec spec{2, 4, 3};
  const auto constraints = TimingConstraints::synchronous(1);
  SyncSmmFactory factory;
  const WorstCase wc = smm_worst_case(spec, constraints, factory);
  EXPECT_TRUE(wc.all_solved);
  EXPECT_EQ(wc.max_termination, Time(2));
  EXPECT_GT(wc.max_gamma, Duration(0));
}

TEST(ExperimentTest, RunOnceReturnsTraceAndVerdict) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints = TimingConstraints::synchronous(1, 1);
  SyncMpmFactory factory;
  FixedPeriodScheduler sched(2, Duration(1));
  FixedDelay delay(Duration(1));
  const MpmOutcome out = run_mpm_once(spec, constraints, factory, sched, delay);
  EXPECT_TRUE(out.run.completed);
  EXPECT_TRUE(out.verdict.admissible);
  EXPECT_EQ(out.verdict.sessions, 2);
  EXPECT_TRUE(out.verdict.solves);
  EXPECT_EQ(out.verdict.rounds.rounds_ceiling(), 2);
}

// --- Pinned sweep outputs ----------------------------------------------------
//
// The jobs-count, recovery and equivalence tests compare a sweep with
// itself, so a shifted seed derivation or a relabelled adversary passes all
// of them. These cases pin every worst-case field, the degradation table and
// the chaos counts and digest of each Table-1 cell at one fixed small
// instance to recorded values.

struct PinnedCell {
  const char* substrate;
  TimingModel model;
  const char* worst;
  const char* degradation;
  const char* chaos;
};

std::string render(const WorstCase& wc) {
  std::ostringstream os;
  os << "runs=" << wc.runs << " admissible=" << wc.all_admissible
     << " solved=" << wc.all_solved << " hit_limit=" << wc.any_hit_limit
     << " min_sessions=" << wc.min_sessions
     << " max_time=" << wc.max_termination.to_string()
     << " max_rounds=" << wc.max_rounds
     << " max_gamma=" << wc.max_gamma.to_string() << " failure=["
     << wc.first_failure << "] limit_hit=[" << wc.first_limit_hit << "]";
  return os.str();
}

std::string render(const ChaosReport& r) {
  std::ostringstream os;
  os << "runs=" << r.runs << " solved=" << r.solved
     << " degraded=" << r.degraded << " diagnosed=" << r.diagnosed
     << " contract_ok=" << r.contract_ok << " violation=["
     << r.first_violation << "] digest=" << r.digest;
  return os.str();
}

// The cli's Table-1 constraints for s=2 n=3 b=2, c1=1 c2=4 d1=1 d2=6.
TimingConstraints pinned_constraints(TimingModel model,
                                     std::int32_t total) {
  const Ratio c1(1), c2(4), d1(1), d2(6);
  switch (model) {
    case TimingModel::kSynchronous:
      return TimingConstraints::synchronous(c2, d2);
    case TimingModel::kPeriodic: {
      std::vector<Duration> periods;
      for (std::int32_t i = 0; i < total; ++i)
        periods.push_back(c1 + (c2 - c1) * Ratio(i, total - 1));
      return TimingConstraints::periodic(periods, d2);
    }
    case TimingModel::kSemiSynchronous:
      return TimingConstraints::semi_synchronous(c1, c2, d2);
    case TimingModel::kSporadic:
      return TimingConstraints::sporadic(c1, d1, d2);
    case TimingModel::kAsynchronous:
      return TimingConstraints::asynchronous(c2, d2);
  }
  return TimingConstraints::asynchronous(c2, d2);
}

std::unique_ptr<MpmAlgorithmFactory> pinned_mpm_factory(TimingModel model) {
  switch (model) {
    case TimingModel::kSynchronous: return std::make_unique<SyncMpmFactory>();
    case TimingModel::kPeriodic: return std::make_unique<PeriodicMpmFactory>();
    case TimingModel::kSemiSynchronous:
      return std::make_unique<SemiSyncMpmFactory>();
    case TimingModel::kSporadic: return std::make_unique<SporadicMpmFactory>();
    case TimingModel::kAsynchronous: break;
  }
  return std::make_unique<AsyncMpmFactory>();
}

std::unique_ptr<SmmAlgorithmFactory> pinned_smm_factory(TimingModel model) {
  switch (model) {
    case TimingModel::kSynchronous: return std::make_unique<SyncSmmFactory>();
    case TimingModel::kPeriodic: return std::make_unique<PeriodicSmmFactory>();
    case TimingModel::kSemiSynchronous:
      return std::make_unique<SemiSyncSmmFactory>();
    case TimingModel::kSporadic:
    case TimingModel::kAsynchronous: break;
  }
  return std::make_unique<AsyncSmmFactory>();
}

class PinnedSweepTest : public ::testing::TestWithParam<PinnedCell> {};

TEST_P(PinnedSweepTest, OutputsMatchRecordedValues) {
  const PinnedCell& cell = GetParam();
  const ProblemSpec spec{2, 3, 2};
  const std::uint64_t seed = 7;
  WorstCase wc;
  DegradationReport degradation;
  ChaosReport chaos;
  if (std::string(cell.substrate) == "mpm") {
    const auto constraints = pinned_constraints(cell.model, spec.n);
    const auto factory = pinned_mpm_factory(cell.model);
    MpmRunLimits limits;
    limits.max_steps = 20'000;
    wc = mpm_worst_case(spec, constraints, *factory, 2, seed);
    degradation = mpm_degradation(spec, constraints, *factory, {0, 1},
                                  {0, 20}, seed, limits);
    chaos = mpm_chaos_sweep(spec, constraints, *factory, 4, seed, limits);
  } else {
    const auto constraints =
        pinned_constraints(cell.model, smm_total_processes(spec.n, spec.b));
    const auto factory = pinned_smm_factory(cell.model);
    SmmRunLimits limits;
    limits.max_steps = 20'000;
    wc = smm_worst_case(spec, constraints, *factory, 2, seed);
    degradation = smm_degradation(spec, constraints, *factory, {0, 1},
                                  {0, 20}, seed, limits);
    chaos = smm_chaos_sweep(spec, constraints, *factory, 4, seed, limits);
  }
  EXPECT_EQ(render(wc), cell.worst);
  EXPECT_EQ(degradation.to_string(), cell.degradation);
  EXPECT_EQ(render(chaos), cell.chaos);
}

const PinnedCell kPinnedCells[] = {
    {"mpm", TimingModel::kSynchronous,
      "runs=1 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=8 max_rounds=2 max_gamma=4 failure=[] limit_hit=[]",
      "mpm sync-mpm degradation:\n"
      "  k=0 p=0%  solved  sessions=2  completed  injected=0  [solved: sessions=2]\n"
      "  k=0 p=20%  solved  sessions=2  completed  injected=0  [solved: sessions=2]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n",
      "runs=4 solved=0 degraded=0 diagnosed=4 contract_ok=1 violation=[] digest=7:diagnosed:2:c;2654435768:diagnosed:2:c;5308871529:diagnosed:1:c;7963307290:diagnosed:2:c;"},
    {"mpm", TimingModel::kPeriodic,
      "runs=5 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=25/2 max_rounds=6 max_gamma=4 failure=[] limit_hit=[]",
      "mpm A(p)-mpm degradation:\n"
      "  k=0 p=0%  solved  sessions=3  completed  injected=0  [solved: sessions=3]\n"
      "  k=0 p=20%  solved  sessions=3  completed  injected=0  [solved: sessions=3]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  stopped  injected=2  [[step-limit] step=20008 t=99985/2 compute-step budget 20000 exhausted]\n",
      "runs=4 solved=0 degraded=0 diagnosed=4 contract_ok=1 violation=[] digest=7:diagnosed:3:c;2654435768:diagnosed:2:c;5308871529:diagnosed:1:c;7963307290:diagnosed:3:c;"},
    {"mpm", TimingModel::kSemiSynchronous,
      "runs=5 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=12 max_rounds=8 max_gamma=4 failure=[] limit_hit=[]",
      "mpm semisync-mpm(auto) degradation:\n"
      "  k=0 p=0%  solved  sessions=3  completed  injected=0  [solved: sessions=3]\n"
      "  k=0 p=20%  solved  sessions=3  completed  injected=4  [solved: sessions=3]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  completed  injected=3  [partial: sessions=1/2, some port never idles]\n",
      "runs=4 solved=2 degraded=1 diagnosed=1 contract_ok=1 violation=[] digest=7:solved:3:c;2654435768:solved:2:c;5308871529:degraded:1:c;7963307290:diagnosed:3:c;"},
    {"mpm", TimingModel::kSporadic,
      "runs=5 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=32 max_rounds=8 max_gamma=16 failure=[] limit_hit=[]",
      "mpm A(sp)-mpm degradation:\n"
      "  k=0 p=0%  solved  sessions=8  completed  injected=0  [solved: sessions=8]\n"
      "  k=0 p=20%  solved  sessions=8  completed  injected=13  [solved: sessions=8]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  completed  injected=12  [partial: sessions=1/2, some port never idles]\n",
      "runs=4 solved=0 degraded=0 diagnosed=4 contract_ok=1 violation=[] digest=7:diagnosed:3:c;2654435768:diagnosed:2:c;5308871529:diagnosed:1:c;7963307290:diagnosed:3:c;"},
    {"mpm", TimingModel::kAsynchronous,
      "runs=4 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=1583/128 max_rounds=6 max_gamma=4 failure=[] limit_hit=[]",
      "mpm async-mpm degradation:\n"
      "  k=0 p=0%  solved  sessions=3  completed  injected=0  [solved: sessions=3]\n"
      "  k=0 p=20%  solved  sessions=3  completed  injected=4  [solved: sessions=3]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  completed  injected=3  [partial: sessions=1/2, some port never idles]\n",
      "runs=4 solved=2 degraded=1 diagnosed=1 contract_ok=1 violation=[] digest=7:solved:3:c;2654435768:solved:2:c;5308871529:degraded:1:c;7963307290:diagnosed:3:c;"},
    {"smm", TimingModel::kSynchronous,
      "runs=1 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=8 max_rounds=2 max_gamma=4 failure=[] limit_hit=[]",
      "smm sync-smm degradation:\n"
      "  k=0 p=0%  solved  sessions=2  completed  injected=0  [solved: sessions=2]\n"
      "  k=0 p=20%  solved  sessions=2  completed  injected=0  [solved: sessions=2]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n",
      "runs=4 solved=0 degraded=0 diagnosed=4 contract_ok=1 violation=[] digest=7:diagnosed:2:c;2654435768:diagnosed:2:c;5308871529:diagnosed:2:c;7963307290:diagnosed:2:c;"},
    {"smm", TimingModel::kPeriodic,
      "runs=1 admissible=1 solved=1 hit_limit=0 min_sessions=5 max_time=119/4 max_rounds=8 max_gamma=4 failure=[] limit_hit=[]",
      "smm A(p)-smm degradation:\n"
      "  k=0 p=0%  solved  sessions=5  completed  injected=0  [solved: sessions=5]\n"
      "  k=0 p=20%  solved  sessions=5  completed  injected=13  [solved: sessions=5]\n"
      "  k=1 p=0%  degraded  sessions=1  stopped  injected=1  [[step-limit] step=20000 t=13080 compute-step budget 20000 exhausted]\n"
      "  k=1 p=20%  degraded  sessions=1  stopped  injected=2735  [[step-limit] step=20000 t=13080 compute-step budget 20000 exhausted]\n",
      "runs=4 solved=0 degraded=0 diagnosed=4 contract_ok=1 violation=[] digest=7:diagnosed:6:c;2654435768:diagnosed:6:x;5308871529:diagnosed:2331:x;7963307290:diagnosed:4:x;"},
    {"smm", TimingModel::kSemiSynchronous,
      "runs=5 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=24 max_rounds=6 max_gamma=4 failure=[] limit_hit=[]",
      "smm semisync-smm(auto) degradation:\n"
      "  k=0 p=0%  solved  sessions=6  completed  injected=0  [solved: sessions=6]\n"
      "  k=0 p=20%  solved  sessions=6  completed  injected=1  [solved: sessions=6]\n"
      "  k=1 p=0%  degraded  sessions=1  completed  injected=1  [partial: sessions=1/2, some port never idles]\n"
      "  k=1 p=20%  degraded  sessions=1  completed  injected=3  [partial: sessions=1/2, some port never idles]\n",
      "runs=4 solved=3 degraded=0 diagnosed=1 contract_ok=1 violation=[] digest=7:solved:5:c;2654435768:solved:4:c;5308871529:solved:5:c;7963307290:diagnosed:5:c;"},
    {"smm", TimingModel::kSporadic,
      "runs=4 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=51 max_rounds=10 max_gamma=16 failure=[] limit_hit=[]",
      "smm async-smm degradation:\n"
      "  k=0 p=0%  solved  sessions=2  completed  injected=0  [solved: sessions=2]\n"
      "  k=0 p=20%  solved  sessions=2  completed  injected=7  [solved: sessions=2]\n"
      "  k=1 p=0%  degraded  sessions=1  stopped  injected=1  [[step-limit] step=20000 t=5000 compute-step budget 20000 exhausted]\n"
      "  k=1 p=20%  degraded  sessions=1  stopped  injected=3999  [[step-limit] step=20000 t=5000 compute-step budget 20000 exhausted]\n",
      "runs=4 solved=1 degraded=3 diagnosed=0 contract_ok=1 violation=[] digest=7:solved:2:c;2654435768:degraded:1:x;5308871529:degraded:1:x;7963307290:degraded:1:x;"},
    {"smm", TimingModel::kAsynchronous,
      "runs=4 admissible=1 solved=1 hit_limit=0 min_sessions=2 max_time=51 max_rounds=10 max_gamma=16 failure=[] limit_hit=[]",
      "smm async-smm degradation:\n"
      "  k=0 p=0%  solved  sessions=2  completed  injected=0  [solved: sessions=2]\n"
      "  k=0 p=20%  solved  sessions=2  completed  injected=7  [solved: sessions=2]\n"
      "  k=1 p=0%  degraded  sessions=1  stopped  injected=1  [[step-limit] step=20000 t=20000 compute-step budget 20000 exhausted]\n"
      "  k=1 p=20%  degraded  sessions=1  stopped  injected=3999  [[step-limit] step=20000 t=20000 compute-step budget 20000 exhausted]\n",
      "runs=4 solved=1 degraded=3 diagnosed=0 contract_ok=1 violation=[] digest=7:solved:2:c;2654435768:degraded:1:x;5308871529:degraded:1:x;7963307290:degraded:1:x;"},
};

INSTANTIATE_TEST_SUITE_P(
    TableOneCells, PinnedSweepTest, ::testing::ValuesIn(kPinnedCells),
    [](const ::testing::TestParamInfo<PinnedCell>& info) {
      std::string name = std::string(info.param.substrate) + "_" +
                         to_string(info.param.model);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(BoundReportTest, RowsAndVerdict) {
  BoundReport report("test");
  WorstCase wc;
  wc.runs = 1;
  wc.all_admissible = true;
  wc.all_solved = true;
  wc.max_termination = Time(5);
  report.add_time_row("cell-a", Ratio(4), wc, Ratio(6));
  EXPECT_TRUE(report.all_ok());

  report.add_time_row("cell-b", Ratio(1), wc, Ratio(4));  // measured above U
  EXPECT_FALSE(report.all_ok());

  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("cell-a"), std::string::npos);
  EXPECT_NE(os.str().find("[FAIL]"), std::string::npos);
}

TEST(BoundReportTest, RoundsRow) {
  BoundReport report("rounds");
  WorstCase wc;
  wc.all_admissible = true;
  wc.all_solved = true;
  wc.max_rounds = 7;
  report.add_rounds_row("cell", 2, wc, 10);
  EXPECT_TRUE(report.all_ok());
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("rounds"), std::string::npos);
}

}  // namespace
}  // namespace sesp
