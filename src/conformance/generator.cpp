#include "conformance/generator.hpp"

#include <memory>
#include <sstream>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "model/trace_io.hpp"
#include "sim/experiment.hpp"
#include "smm/smm_simulator.hpp"
#include "util/rng.hpp"

namespace sesp::conformance {

namespace {

// Sub-stream tags so the generator's own draws never collide with the
// scheduler / delay RNG streams derived from the same case seed.
constexpr std::uint64_t kGenStream = 0x67656e6572617465ULL;   // "generate"
constexpr std::uint64_t kSchedStream = 0x7363686564756c65ULL; // "schedule"
constexpr std::uint64_t kDelayStream = 0x64656c6179737472ULL;

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Algorithm pools per cell. The sporadic SMM cell runs the round-based
// asynchronous algorithm: the paper gives no dedicated sporadic SMM
// algorithm, and the async one is correct under every schedule, so the cell
// still exercises sporadic admissibility end to end.
std::vector<std::string> algorithm_pool(TimingModel model,
                                        Substrate substrate) {
  const bool smm = substrate == Substrate::kSharedMemory;
  switch (model) {
    case TimingModel::kSynchronous:
      return {"sync"};
    case TimingModel::kPeriodic:
      return {"periodic"};
    case TimingModel::kSemiSynchronous:
      return {"semisync", "semisync-stepcount", "semisync-communicate"};
    case TimingModel::kSporadic:
      return smm ? std::vector<std::string>{"async"}
                 : std::vector<std::string>{"sporadic", "sporadic-nocond2"};
    case TimingModel::kAsynchronous:
      return {"async"};
  }
  return {"async"};
}

std::int32_t schedule_pool_size(TimingModel model, Substrate substrate) {
  switch (model) {
    case TimingModel::kSynchronous:
      return 1;  // lockstep at exactly c2 is the only admissible schedule
    case TimingModel::kPeriodic:
      return substrate == Substrate::kSharedMemory ? 1 : 2;
    case TimingModel::kSemiSynchronous:
      return 3;
    case TimingModel::kSporadic:
      return 3;
    case TimingModel::kAsynchronous:
      return 2;
  }
  return 1;
}

Ratio small_ratio(Rng& rng, std::int64_t lo, std::int64_t hi,
                  std::uint32_t half_prob_num = 1) {
  const std::int64_t num = rng.next_int(lo, hi);
  const bool halves = rng.next_bool(half_prob_num, 4);
  return halves ? Ratio(num, 2) : Ratio(num);
}

TimingConstraints sample_constraints(TimingModel model,
                                     std::int32_t total_processes, Rng& rng,
                                     const GeneratorLimits& limits) {
  const std::int64_t cap = limits.max_constant;
  switch (model) {
    case TimingModel::kSynchronous: {
      const Ratio c2 = small_ratio(rng, 1, 4);
      const Ratio d2 = small_ratio(rng, 1, cap);
      return TimingConstraints::synchronous(c2, d2);
    }
    case TimingModel::kPeriodic: {
      std::vector<Duration> periods;
      periods.reserve(static_cast<std::size_t>(total_processes));
      for (std::int32_t p = 0; p < total_processes; ++p)
        periods.push_back(small_ratio(rng, 1, cap));
      const Ratio d2 = small_ratio(rng, 1, cap);
      return TimingConstraints::periodic(std::move(periods), d2);
    }
    case TimingModel::kSemiSynchronous: {
      const Ratio c1 = rng.next_bool(1, 3) ? Ratio(1, 2) : Ratio(1);
      const Ratio c2 = c1 + Ratio(rng.next_int(0, cap - 1));
      const Ratio d2 = small_ratio(rng, 1, cap);
      return TimingConstraints::semi_synchronous(c1, c2, d2);
    }
    case TimingModel::kSporadic: {
      const Ratio c1(1);
      const Ratio d1(rng.next_int(0, 2));
      const Ratio d2 = d1 + Ratio(rng.next_int(1, cap));
      return TimingConstraints::sporadic(c1, d1, d2);
    }
    case TimingModel::kAsynchronous: {
      const Ratio c2 = small_ratio(rng, 1, 4);
      const Ratio d2 = small_ratio(rng, 1, cap);
      return TimingConstraints::asynchronous(c2, d2);
    }
  }
  return TimingConstraints::asynchronous();
}

ProcessId slow_victim(const CaseDescriptor& c, std::int32_t total) {
  return static_cast<ProcessId>(mix64(c.seed ^ 0x736c6f77ULL) %
                                static_cast<std::uint64_t>(total));
}

std::unique_ptr<StepScheduler> make_scheduler(const CaseDescriptor& c,
                                              std::int32_t total) {
  const TimingConstraints& k = c.constraints;
  const std::uint64_t seed = mix64(c.seed ^ kSchedStream);
  switch (c.model) {
    case TimingModel::kSynchronous:
      return std::make_unique<FixedPeriodScheduler>(total, k.c2);
    case TimingModel::kPeriodic:
      return std::make_unique<FixedPeriodScheduler>(k.periods);
    case TimingModel::kSemiSynchronous:
      switch (c.schedule) {
        case 1:  // lockstep at c2 — the retimer-compatible subfamily
          return std::make_unique<FixedPeriodScheduler>(total, k.c2);
        case 2:
          return std::make_unique<SlowOneScheduler>(total, k.c1,
                                                    slow_victim(c, total),
                                                    k.c2);
        default:
          return std::make_unique<UniformGapScheduler>(k.c1, k.c2, seed);
      }
    case TimingModel::kSporadic:
      switch (c.schedule) {
        case 1:
          return std::make_unique<FixedPeriodScheduler>(total, k.c1);
        case 2:
          return std::make_unique<SlowOneScheduler>(total, k.c1,
                                                    slow_victim(c, total),
                                                    k.c1 * Ratio(4));
        default:
          return std::make_unique<BurstyScheduler>(
              k.c1, 1, 4, 2 + static_cast<std::int64_t>(seed % 4), seed);
      }
    case TimingModel::kAsynchronous:
      if (c.substrate == Substrate::kSharedMemory) {
        // Unconstrained: any positive gaps are admissible.
        if (c.schedule == 1)
          return std::make_unique<FixedPeriodScheduler>(total, Ratio(1));
        return std::make_unique<UniformGapScheduler>(Ratio(1, 4), Ratio(2),
                                                     seed);
      }
      // MPM: gaps must fall in (0, c2].
      if (c.schedule == 1)
        return std::make_unique<FixedPeriodScheduler>(total, k.c2);
      return std::make_unique<UniformGapScheduler>(k.c2 / Ratio(4), k.c2,
                                                   seed);
  }
  return std::make_unique<FixedPeriodScheduler>(total, Ratio(1));
}

std::unique_ptr<DelayStrategy> make_delays(const CaseDescriptor& c) {
  const TimingConstraints& k = c.constraints;
  const std::uint64_t seed = mix64(c.seed ^ kDelayStream);
  switch (c.model) {
    case TimingModel::kSynchronous:
      return std::make_unique<FixedDelay>(k.d2);  // delay == d2 exactly
    case TimingModel::kSporadic:
      if (c.schedule == 1) return std::make_unique<FixedDelay>(k.d2);
      return std::make_unique<UniformRandomDelay>(k.d1, k.d2, seed);
    default:
      if (c.schedule == 1) return std::make_unique<FixedDelay>(k.d2);
      return std::make_unique<UniformRandomDelay>(Ratio(0), k.d2, seed);
  }
}

}  // namespace

std::uint64_t case_seed(std::uint64_t base, std::uint64_t cell,
                        std::uint64_t index) noexcept {
  return mix64(base ^ mix64(cell * 0x100000001b3ULL + index));
}

CaseDescriptor generate_case(TimingModel model, Substrate substrate,
                             std::uint64_t seed,
                             const GeneratorLimits& limits) {
  Rng rng(mix64(seed ^ kGenStream));
  CaseDescriptor c;
  c.model = model;
  c.substrate = substrate;
  c.seed = seed;
  c.spec.s = rng.next_int(1, limits.max_s);
  c.spec.n = static_cast<std::int32_t>(rng.next_int(2, limits.max_n));
  c.spec.b = substrate == Substrate::kSharedMemory
                 ? static_cast<std::int32_t>(rng.next_int(2, limits.max_b))
                 : 2;
  const std::int32_t total = substrate == Substrate::kSharedMemory
                                 ? smm_total_processes(c.spec.n, c.spec.b)
                                 : c.spec.n;
  c.constraints = sample_constraints(model, total, rng, limits);
  const auto pool = algorithm_pool(model, substrate);
  c.algorithm = static_cast<std::int32_t>(
      rng.next_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  c.schedule = static_cast<std::int32_t>(
      rng.next_int(0, schedule_pool_size(model, substrate) - 1));
  return c;
}

std::string resolved_algorithm(const CaseDescriptor& c) {
  if (!c.algorithm_override.empty()) return c.algorithm_override;
  const auto pool = algorithm_pool(c.model, c.substrate);
  return pool[static_cast<std::size_t>(c.algorithm) % pool.size()];
}

bool algorithm_expected_correct(const CaseDescriptor& c) {
  return resolved_algorithm(c).rfind("broken-", 0) != 0;
}

std::string CaseDescriptor::to_string() const {
  std::ostringstream os;
  os << sesp::to_string(model) << '/'
     << (substrate == Substrate::kSharedMemory ? "smm" : "mpm")
     << " alg=" << resolved_algorithm(*this) << " sched=" << schedule
     << " s=" << spec.s << " n=" << spec.n << " b=" << spec.b << " seed=0x"
     << std::hex << seed << std::dec << ' ' << to_text(constraints);
  return os.str();
}

std::optional<TimingModel> native_model(const std::string& algorithm) {
  std::string base = algorithm;
  const auto colon = base.find(':');
  if (colon != std::string::npos) base = base.substr(0, colon);
  if (base == "sync") return TimingModel::kSynchronous;
  if (base == "periodic" || base == "broken-nowait" ||
      base == "broken-treeonly")
    return TimingModel::kPeriodic;
  if (base.rfind("semisync", 0) == 0 || base == "broken-halfslack" ||
      base == "broken-toofewsteps")
    return TimingModel::kSemiSynchronous;
  if (base.rfind("sporadic", 0) == 0 || base == "broken-impatient")
    return TimingModel::kSporadic;
  if (base == "async") return TimingModel::kAsynchronous;
  return std::nullopt;
}

GeneratedRun run_case(const CaseDescriptor& c, obs::Observer* observer) {
  GeneratedRun out;
  out.expect_solves = true;
  const std::string alg = resolved_algorithm(c);
  RunLimits limits;
  limits.max_steps = 100000;  // broken algorithms may never idle
  const auto finish = [&out](const std::string& sub, auto o) {
    if (o.run.error)
      out.error = sub + " run error: " + o.run.error->to_string();
    else if (o.run.hit_limit)
      out.error = sub + " run hit limit";
    else if (!o.run.completed)
      out.error = sub + " run incomplete";
    else
      out.ok = true;
    out.trace.emplace(std::move(o.run.trace));
    out.verdict = o.verdict;
  };
  if (c.substrate == Substrate::kSharedMemory) {
    if (const auto factory = make_smm_factory(alg)) {
      const auto scheduler =
          make_scheduler(c, smm_total_processes(c.spec.n, c.spec.b));
      finish("smm", run_smm_once(c.spec, c.constraints, *factory, *scheduler,
                                 limits, nullptr, observer));
    } else {
      out.error = "unknown smm algorithm: " + alg;
    }
    return out;
  }
  if (const auto factory = make_mpm_factory(alg)) {
    const auto scheduler = make_scheduler(c, c.spec.n);
    const auto delays = make_delays(c);
    finish("mpm", run_mpm_once(c.spec, c.constraints, *factory, *scheduler,
                               *delays, limits, nullptr, observer));
  } else {
    out.error = "unknown mpm algorithm: " + alg;
  }
  return out;
}

const std::vector<TimingModel>& all_models() {
  static const std::vector<TimingModel> kModels = {
      TimingModel::kSynchronous, TimingModel::kPeriodic,
      TimingModel::kSemiSynchronous, TimingModel::kSporadic,
      TimingModel::kAsynchronous};
  return kModels;
}

const std::vector<Substrate>& all_substrates() {
  static const std::vector<Substrate> kSubstrates = {
      Substrate::kSharedMemory, Substrate::kMessagePassing};
  return kSubstrates;
}

}  // namespace sesp::conformance
