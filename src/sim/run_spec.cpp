#include "sim/run_spec.hpp"

#include <algorithm>
#include <vector>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/broken_algs.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/broken_algs.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"

namespace sesp {

namespace {

// The sweep constants sesp_cli and sesp_serve share: seeded random
// schedules per worst-case family, and the step budget of a degradation
// cell (crash-induced livelocks cut over fast).
constexpr std::int32_t kWorstCaseRandomRuns = 4;
constexpr std::int64_t kDegradationMaxSteps = 150'000;

std::int64_t parse_toofewsteps(const std::string& name) {
  const auto colon = name.find(':');
  if (colon == std::string::npos) return 1;
  try {
    return std::max<std::int64_t>(1, std::stoll(name.substr(colon + 1)));
  } catch (...) {
    return 1;
  }
}

}  // namespace

std::int32_t run_processes(const RunSpec& r) {
  return r.substrate == "smm" ? smm_total_processes(r.spec.n, r.spec.b)
                              : r.spec.n;
}

std::optional<TimingConstraints> run_constraints(const RunSpec& r) {
  if (r.model == "sync") return TimingConstraints::synchronous(r.c2, r.d2);
  if (r.model == "periodic") {
    const std::int32_t total = run_processes(r);
    std::vector<Duration> periods;
    for (std::int32_t i = 0; i < total; ++i) {
      const Ratio frac = total > 1 ? Ratio(i, total - 1) : Ratio(0);
      periods.push_back(r.c1 + (r.c2 - r.c1) * frac);
    }
    return TimingConstraints::periodic(periods, r.d2);
  }
  if (r.model == "semisync")
    return TimingConstraints::semi_synchronous(r.c1, r.c2, r.d2);
  if (r.model == "sporadic")
    return TimingConstraints::sporadic(r.c1, r.d1, r.d2);
  if (r.model == "async") return TimingConstraints::asynchronous(r.c2, r.d2);
  return std::nullopt;
}

std::unique_ptr<SmmAlgorithmFactory> make_smm_factory(
    const std::string& name) {
  if (name == "sync") return std::make_unique<SyncSmmFactory>();
  if (name == "periodic") return std::make_unique<PeriodicSmmFactory>();
  if (name == "semisync") return std::make_unique<SemiSyncSmmFactory>();
  if (name == "semisync-stepcount")
    return std::make_unique<SemiSyncSmmFactory>(SmmSemiSyncStrategy::kStepCount);
  if (name == "semisync-communicate")
    return std::make_unique<SemiSyncSmmFactory>(
        SmmSemiSyncStrategy::kCommunicate);
  if (name == "async") return std::make_unique<AsyncSmmFactory>();
  if (name == "broken-nowait")
    return std::make_unique<NoWaitPeriodicSmmFactory>();
  if (name == "broken-halfslack") return std::make_unique<HalfSlackSmmFactory>();
  if (name == "broken-treeonly")
    return std::make_unique<TreeOnlyWaitPeriodicSmmFactory>();
  if (name.rfind("broken-toofewsteps", 0) == 0)
    return std::make_unique<TooFewStepsSmmFactory>(parse_toofewsteps(name));
  return nullptr;
}

std::unique_ptr<MpmAlgorithmFactory> make_mpm_factory(
    const std::string& name) {
  if (name == "sync") return std::make_unique<SyncMpmFactory>();
  if (name == "periodic") return std::make_unique<PeriodicMpmFactory>();
  if (name == "semisync") return std::make_unique<SemiSyncMpmFactory>();
  if (name == "semisync-stepcount")
    return std::make_unique<SemiSyncMpmFactory>(SemiSyncStrategy::kStepCount);
  if (name == "semisync-communicate")
    return std::make_unique<SemiSyncMpmFactory>(SemiSyncStrategy::kCommunicate);
  if (name == "sporadic") return std::make_unique<SporadicMpmFactory>();
  if (name == "sporadic-nocond2")
    return std::make_unique<SporadicMpmFactory>(-1, false);
  if (name == "async") return std::make_unique<AsyncMpmFactory>();
  if (name == "broken-halfslack") return std::make_unique<HalfSlackMpmFactory>();
  if (name == "broken-nowait")
    return std::make_unique<NoWaitPeriodicMpmFactory>();
  if (name == "broken-impatient")
    return std::make_unique<ImpatientSporadicMpmFactory>();
  if (name.rfind("broken-toofewsteps", 0) == 0)
    return std::make_unique<TooFewStepsMpmFactory>(parse_toofewsteps(name));
  return nullptr;
}

std::unique_ptr<StepScheduler> run_scheduler(const RunSpec& r,
                                             const TimingConstraints& c) {
  if (r.model == "periodic")
    return std::make_unique<FixedPeriodScheduler>(c.periods);
  // Sporadic bounds steps from below only: the message-passing adversaries
  // key off c1 there, while the SMM keeps c2.
  const bool sporadic = r.model == "sporadic" && r.substrate != "smm";
  if (r.adversary == "lockstep")
    return std::make_unique<FixedPeriodScheduler>(run_processes(r),
                                                  sporadic ? r.c1 : r.c2);
  const Duration lo = r.c1.is_positive() ? r.c1 : r.c2 / 8;
  return std::make_unique<UniformGapScheduler>(lo, sporadic ? r.c1 * 8 : r.c2,
                                               r.seed);
}

std::unique_ptr<DelayStrategy> run_delays(const RunSpec& r) {
  if (r.model == "periodic" || r.adversary == "lockstep")
    return std::make_unique<FixedDelay>(r.d2);
  return std::make_unique<UniformRandomDelay>(r.d1, r.d2, r.seed + 1);
}

std::optional<RunPlan> RunPlan::resolve(const RunSpec& r) {
  auto constraints = run_constraints(r);
  if (!constraints || (r.substrate != "mpm" && r.substrate != "smm"))
    return std::nullopt;
  RunPlan plan;
  plan.spec_ = r;
  plan.constraints_ = std::move(*constraints);
  if (r.substrate == "mpm")
    plan.mpm_ = make_mpm_factory(r.model);
  else
    plan.smm_ = make_smm_factory(r.model == "sporadic" ? "async" : r.model);
  return plan;
}

const char* RunPlan::algorithm() const {
  return mpm_ ? mpm_->name() : smm_->name();
}

SpecOutcome RunPlan::run(FaultInjector* faults,
                         obs::Observer* observer) const {
  const auto sched = run_scheduler(spec_, constraints_);
  if (mpm_) {
    const auto delays = run_delays(spec_);
    MpmOutcome out = run_mpm_once(spec_.spec, constraints_, *mpm_, *sched,
                                  *delays, MpmRunLimits{}, faults, observer);
    return {std::move(out.run.trace), std::move(out.verdict), out.run.error};
  }
  SmmOutcome out = run_smm_once(spec_.spec, constraints_, *smm_, *sched,
                                SmmRunLimits{}, faults, observer);
  return {std::move(out.run.trace), std::move(out.verdict), out.run.error};
}

WorstCase RunPlan::worst_case(const RunContext& ctx) const {
  if (mpm_)
    return mpm_worst_case(spec_.spec, constraints_, *mpm_,
                          kWorstCaseRandomRuns, spec_.seed, MpmRunLimits{},
                          ctx);
  return smm_worst_case(spec_.spec, constraints_, *smm_, kWorstCaseRandomRuns,
                        spec_.seed, SmmRunLimits{}, ctx);
}

DegradationReport RunPlan::degradation(const RunContext& ctx) const {
  RunLimits limits;
  limits.max_steps = kDegradationMaxSteps;
  if (mpm_)
    return mpm_degradation(spec_.spec, constraints_, *mpm_, {0, 1, 2},
                           {0, 5, 20}, spec_.seed, limits, ctx);
  return smm_degradation(spec_.spec, constraints_, *smm_, {0, 1, 2},
                         {0, 5, 20}, spec_.seed, limits, ctx);
}

ReplayReport RunPlan::replay(const TimedComputation& trace,
                             obs::Observer* observer) const {
  if (mpm_)
    return replay_mpm(trace, spec_.spec, constraints_, *mpm_, observer);
  return replay_smm(trace, spec_.spec, constraints_, *smm_, observer);
}

}  // namespace sesp
