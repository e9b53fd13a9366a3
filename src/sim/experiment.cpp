#include "sim/experiment.hpp"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "model/trace_io.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"

namespace sesp {

namespace {

// The scaffolding every sweep shares: recovery::supervised_sweep under
// journal stage `stage` (its task shards, profile scope and slot-order
// fold), plus a `span_name` span per task (args rendered only when
// tracing). The result is the same for every job count and
// interrupt/resume history.
template <typename SpanArgs, typename Task, typename Apply>
void run_sweep(const RunContext& ctx, const std::string& stage,
               const std::string& span_name, const char* category,
               std::size_t count, const SpanArgs& span_args, const Task& task,
               const Apply& apply) {
  recovery::supervised_sweep(
      ctx, stage, count,
      [&](std::size_t i, obs::Observer* o) {
        obs::Span span(o ? o->trace : nullptr, span_name, category,
                       o && o->trace ? span_args(i) : std::string());
        return task(i, o);
      },
      apply);
}

// The substrate parameters of the sweep families: name (journal stage and
// span prefix), scheduled processes (n, or smm_total_processes), whether it
// passes messages (the degradation knob is then message drop, else write
// corruption), and its run_*_once as run(scheduler, delays, faults,
// observer); the SMM has no delay strategy and ignores `delays`. The run
// refers to the entry point's arguments, which outlive the sweep.
template <typename Run>
struct SweepSubstrate {
  std::string name;
  std::int32_t processes;
  bool message_passing;
  Run run;
};

auto mpm_substrate(const ProblemSpec& spec,
                   const TimingConstraints& constraints,
                   const MpmAlgorithmFactory& factory,
                   const MpmRunLimits& limits) {
  return SweepSubstrate{
      "mpm", spec.n, true,
      [&spec, &constraints, &factory, &limits](
          StepScheduler& sched, DelayStrategy* delays, FaultInjector* faults,
          obs::Observer* o) {
        return run_mpm_once(spec, constraints, factory, sched, *delays, limits,
                            faults, o);
      }};
}

auto smm_substrate(const ProblemSpec& spec,
                   const TimingConstraints& constraints,
                   const SmmAlgorithmFactory& factory,
                   const SmmRunLimits& limits) {
  return SweepSubstrate{
      "smm", smm_total_processes(spec.n, spec.b), false,
      [&spec, &constraints, &factory, &limits](
          StepScheduler& sched, DelayStrategy*, FaultInjector* faults,
          obs::Observer* o) {
        return run_smm_once(spec, constraints, factory, sched, limits, faults,
                            o);
      }};
}

// Everything the worst-case aggregate consumes from one run, flattened to
// journal-codable fields: the sweeps fold *decoded* WorstSlots (fresh or
// replayed from a checkpoint journal) so the report is a pure function of
// the payload bytes (docs/robustness.md).
struct WorstSlot {
  std::string label;
  bool completed = false;
  bool hit_limit = false;
  bool admissible = false;
  std::string violation;
  bool solves = false;
  std::int64_t sessions = 0;
  std::optional<Time> termination;
  std::int64_t rounds = 0;
  std::optional<Duration> gamma;
  std::optional<std::string> error;
};

template <typename Outcome>
WorstSlot make_worst_slot(const std::string& label, const Outcome& out) {
  WorstSlot s;
  s.label = label;
  s.completed = out.run.completed;
  s.hit_limit = out.run.hit_limit;
  const Verdict& v = out.verdict;
  s.admissible = v.admissible;
  s.violation = v.admissibility_violation;
  s.solves = v.solves;
  s.sessions = v.sessions;
  s.termination = v.termination_time;
  s.rounds = v.rounds.rounds_ceiling();
  if (v.gamma) s.gamma = *v.gamma;
  if (out.run.error) s.error = out.run.error->to_string();
  return s;
}

std::string encode_worst_slot(const WorstSlot& s) {
  recovery::PayloadWriter w;
  w.put("label", s.label);
  w.put_bool("completed", s.completed);
  w.put_bool("hit_limit", s.hit_limit);
  w.put_bool("admissible", s.admissible);
  w.put("violation", s.violation);
  w.put_bool("solves", s.solves);
  w.put_int("sessions", s.sessions);
  if (s.termination) w.put("termination", ratio_to_text(*s.termination));
  w.put_int("rounds", s.rounds);
  if (s.gamma) w.put("gamma", ratio_to_text(*s.gamma));
  if (s.error) w.put("error", *s.error);
  return w.str();
}

WorstSlot decode_worst_slot(const std::string& payload,
                            const std::string& fallback_label) {
  WorstSlot s;
  s.label = fallback_label;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    // Supervisor-level failure: the schedule itself was fine (admissible),
    // the run just never produced a verdict.
    s.admissible = true;
    s.error = failure->to_string();
    return s;
  }
  const recovery::PayloadReader r(payload);
  s.label = r.get("label", fallback_label);
  s.completed = r.get_bool("completed", false);
  s.hit_limit = r.get_bool("hit_limit", false);
  s.admissible = r.get_bool("admissible", false);
  s.violation = r.get("violation");
  s.solves = r.get_bool("solves", false);
  s.sessions = r.get_int("sessions", 0);
  if (r.has("termination"))
    if (const auto t = ratio_from_text(r.get("termination"))) s.termination = *t;
  s.rounds = r.get_int("rounds", 0);
  if (r.has("gamma"))
    if (const auto g = ratio_from_text(r.get("gamma"))) s.gamma = *g;
  if (r.has("error")) s.error = r.get("error");
  return s;
}

void fold(WorstCase& wc, const WorstSlot& s) {
  ++wc.runs;
  wc.any_hit_limit = wc.any_hit_limit || s.hit_limit;
  if (!s.admissible || !s.solves || s.hit_limit || s.error) {
    wc.all_solved = wc.all_solved && s.solves && !s.hit_limit && !s.error;
    wc.all_admissible = wc.all_admissible && s.admissible;
    if (wc.first_failure.empty()) {
      wc.first_failure = s.label + ": ";
      if (!s.admissible)
        wc.first_failure += "inadmissible (" + s.violation + ")";
      else if (s.error)
        wc.first_failure += *s.error;
      else if (s.hit_limit)
        wc.first_failure += "hit run limit";
      else
        wc.first_failure +=
            "solved=false (sessions=" + std::to_string(s.sessions) + ")";
    }
  }
  // Limit hits are recorded on their own channel: a run that trips a limit
  // must name the adversary and the limit even when another run already
  // claimed first_failure (or succeeds later).
  if (s.hit_limit && wc.first_limit_hit.empty())
    wc.first_limit_hit = s.label + ": " + (s.error ? *s.error : "hit run limit");
  if (wc.runs == 1 || s.sessions < wc.min_sessions)
    wc.min_sessions = s.sessions;
  if (s.completed && s.termination && wc.max_termination < *s.termination)
    wc.max_termination = *s.termination;
  if (wc.max_rounds < s.rounds) wc.max_rounds = s.rounds;
  if (s.gamma && wc.max_gamma < *s.gamma) wc.max_gamma = *s.gamma;
}

// Each adversary owns its schedulers (and their RNG streams), so the runs of
// a family are independent.
struct Adversary {
  std::string label;
  std::unique_ptr<StepScheduler> sched;
  std::unique_ptr<DelayStrategy> delay;  // null on the SMM
};

// The MPM and SMM families are the paper's schedule families per model:
// the deterministic worst cases (slowest periods, maximal delays, slow-one /
// straggler skews) plus `random_runs` seeded random admissible schedules.
std::vector<Adversary> mpm_family(const TimingConstraints& constraints,
                                  std::int32_t n, std::int32_t random_runs,
                                  std::uint64_t seed) {
  std::vector<Adversary> family;
  auto add = [&family](std::string label, std::unique_ptr<StepScheduler> s,
                       std::unique_ptr<DelayStrategy> d) {
    family.push_back(Adversary{std::move(label), std::move(s), std::move(d)});
  };

  switch (constraints.model) {
    case TimingModel::kSynchronous:
      add("lockstep",
          std::make_unique<FixedPeriodScheduler>(n, constraints.c2),
          std::make_unique<FixedDelay>(constraints.d2));
      break;
    case TimingModel::kPeriodic: {
      add("periods/max-delay",
          std::make_unique<FixedPeriodScheduler>(constraints.periods),
          std::make_unique<FixedDelay>(constraints.d2));
      add("periods/zero-delay",
          std::make_unique<FixedPeriodScheduler>(constraints.periods),
          std::make_unique<FixedDelay>(Duration(0)));
      add("periods/straggler",
          std::make_unique<FixedPeriodScheduler>(constraints.periods),
          std::make_unique<StragglerDelay>(0, Duration(0), constraints.d2));
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("periods/random-delay#" + std::to_string(r),
            std::make_unique<FixedPeriodScheduler>(constraints.periods),
            std::make_unique<UniformRandomDelay>(Duration(0), constraints.d2,
                                                 seed + 31 * r + 1));
      break;
    }
    case TimingModel::kSemiSynchronous:
      add("all-slow/max-delay",
          std::make_unique<FixedPeriodScheduler>(n, constraints.c2),
          std::make_unique<FixedDelay>(constraints.d2));
      add("all-fast/max-delay",
          std::make_unique<FixedPeriodScheduler>(n, constraints.c1),
          std::make_unique<FixedDelay>(constraints.d2));
      add("slow-one/max-delay",
          std::make_unique<SlowOneScheduler>(n, constraints.c1, 0,
                                             constraints.c2),
          std::make_unique<FixedDelay>(constraints.d2));
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("random#" + std::to_string(r),
            std::make_unique<UniformGapScheduler>(constraints.c1,
                                                  constraints.c2,
                                                  seed + 77 * r + 3),
            std::make_unique<UniformRandomDelay>(Duration(0), constraints.d2,
                                                 seed + 77 * r + 4));
      break;
    case TimingModel::kSporadic:
      add("all-c1/max-delay",
          std::make_unique<FixedPeriodScheduler>(n, constraints.c1),
          std::make_unique<FixedDelay>(constraints.d2));
      add("all-c1/min-delay",
          std::make_unique<FixedPeriodScheduler>(n, constraints.c1),
          std::make_unique<FixedDelay>(constraints.d1));
      add("slow-one/max-delay",
          std::make_unique<SlowOneScheduler>(n, constraints.c1, 0,
                                             constraints.c1 * 16),
          std::make_unique<FixedDelay>(constraints.d2));
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("bursty#" + std::to_string(r),
            std::make_unique<BurstyScheduler>(constraints.c1, 1, 8, 12,
                                              seed + 13 * r + 5),
            std::make_unique<UniformRandomDelay>(constraints.d1,
                                                 constraints.d2,
                                                 seed + 13 * r + 6));
      break;
    case TimingModel::kAsynchronous:
      add("all-c2/max-delay",
          std::make_unique<FixedPeriodScheduler>(n, constraints.c2),
          std::make_unique<FixedDelay>(constraints.d2));
      add("slow-one/max-delay",
          std::make_unique<SlowOneScheduler>(n, constraints.c2 / 4, 0,
                                             constraints.c2),
          std::make_unique<FixedDelay>(constraints.d2));
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("random#" + std::to_string(r),
            std::make_unique<UniformGapScheduler>(constraints.c2 / 16,
                                                  constraints.c2,
                                                  seed + 7 * r + 9),
            std::make_unique<UniformRandomDelay>(Duration(0), constraints.d2,
                                                 seed + 7 * r + 10));
      break;
  }
  return family;
}

std::vector<Adversary> smm_family(const TimingConstraints& constraints,
                                  std::int32_t total,
                                  std::int32_t random_runs,
                                  std::uint64_t seed) {
  std::vector<Adversary> family;
  auto add = [&family](std::string label, std::unique_ptr<StepScheduler> s) {
    family.push_back(Adversary{std::move(label), std::move(s), nullptr});
  };

  switch (constraints.model) {
    case TimingModel::kSynchronous:
      add("lockstep",
          std::make_unique<FixedPeriodScheduler>(total, constraints.c2));
      break;
    case TimingModel::kPeriodic:
      add("periods",
          std::make_unique<FixedPeriodScheduler>(constraints.periods));
      break;
    case TimingModel::kSemiSynchronous:
      add("all-slow",
          std::make_unique<FixedPeriodScheduler>(total, constraints.c2));
      add("all-fast",
          std::make_unique<FixedPeriodScheduler>(total, constraints.c1));
      add("slow-one", std::make_unique<SlowOneScheduler>(
                          total, constraints.c1, 0, constraints.c2));
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("random#" + std::to_string(r),
            std::make_unique<UniformGapScheduler>(
                constraints.c1, constraints.c2, seed + 41 * r + 11));
      break;
    case TimingModel::kSporadic:
    case TimingModel::kAsynchronous: {
      const Duration base = constraints.model == TimingModel::kSporadic
                                ? constraints.c1
                                : Duration(1);
      add("all-base", std::make_unique<FixedPeriodScheduler>(total, base));
      add("slow-one",
          std::make_unique<SlowOneScheduler>(total, base, 0, base * 16));
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("bursty#" + std::to_string(r),
            std::make_unique<BurstyScheduler>(base, 1, 8, 12,
                                              seed + 59 * r + 13));
      break;
    }
  }
  return family;
}

// Results land in per-adversary slots and are folded in family order.
template <typename Run>
WorstCase worst_case(const SweepSubstrate<Run>& sub,
                     std::vector<Adversary> family, const RunContext& ctx) {
  WorstCase wc;
  run_sweep(
      ctx, sub.name + "_worst_case", "adversary." + sub.name + "_worst_case",
      "adversary", family.size(),
      [&](std::size_t i) {
        return obs::args_object({obs::arg_str("label", family[i].label)});
      },
      [&](std::size_t i, obs::Observer* o) {
        Adversary& adv = family[i];
        return encode_worst_slot(make_worst_slot(
            adv.label, sub.run(*adv.sched, adv.delay.get(), nullptr, o)));
      },
      [&](std::size_t i, const std::string& payload) {
        fold(wc, decode_worst_slot(payload, family[i].label));
      });
  return wc;
}

}  // namespace

MpmOutcome run_mpm_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const MpmAlgorithmFactory& factory,
                        StepScheduler& scheduler, DelayStrategy& delays,
                        const MpmRunLimits& limits, FaultInjector* faults,
                        obs::Observer* observer) {
  MpmSimulator sim(spec, constraints, factory, scheduler, delays, faults,
                   observer);
  MpmOutcome out{sim.run(limits), Verdict{}};
  out.verdict = verify(out.run.trace, spec, constraints, observer);
  return out;
}

SmmOutcome run_smm_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const SmmAlgorithmFactory& factory,
                        StepScheduler& scheduler, const SmmRunLimits& limits,
                        FaultInjector* faults, obs::Observer* observer) {
  SmmSimulator sim(spec, constraints, factory, scheduler, faults, observer);
  SmmOutcome out{sim.run(limits), Verdict{}};
  out.verdict = verify(out.run.trace, spec, constraints, observer);
  return out;
}

P2pOutcome run_p2p_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const Topology& topology,
                        const P2pAlgorithmFactory& factory,
                        StepScheduler& scheduler, DelayStrategy& delays,
                        const P2pRunLimits& limits, FaultInjector* faults,
                        obs::Observer* observer) {
  P2pSimulator sim(spec, constraints, topology, factory, scheduler, delays,
                   faults, observer);
  P2pOutcome out{sim.run(limits), Verdict{}};
  out.verdict = verify(out.run.trace, spec, constraints, observer);
  return out;
}

WorstCase mpm_worst_case(const ProblemSpec& spec,
                         const TimingConstraints& constraints,
                         const MpmAlgorithmFactory& factory,
                         std::int32_t random_runs, std::uint64_t seed,
                         const MpmRunLimits& limits, const RunContext& ctx) {
  return worst_case(mpm_substrate(spec, constraints, factory, limits),
                    mpm_family(constraints, spec.n, random_runs, seed),
                    ctx.resolve());
}

WorstCase smm_worst_case(const ProblemSpec& spec,
                         const TimingConstraints& constraints,
                         const SmmAlgorithmFactory& factory,
                         std::int32_t random_runs, std::uint64_t seed,
                         const SmmRunLimits& limits, const RunContext& ctx) {
  const auto sub = smm_substrate(spec, constraints, factory, limits);
  return worst_case(
      sub, smm_family(constraints, sub.processes, random_runs, seed),
      ctx.resolve());
}

// --- Degradation sweeps -----------------------------------------------------

namespace {

// The canonical deterministic adversary of each model (its first worst-case
// family member): degradation cells isolate the injected faults, so the
// schedule itself stays fixed and admissible.
std::unique_ptr<StepScheduler> canonical_scheduler(
    const TimingConstraints& constraints, std::int32_t num_processes) {
  switch (constraints.model) {
    case TimingModel::kPeriodic:
      return std::make_unique<FixedPeriodScheduler>(constraints.periods);
    case TimingModel::kSporadic:
      return std::make_unique<FixedPeriodScheduler>(num_processes,
                                                    constraints.c1);
    case TimingModel::kSynchronous:
    case TimingModel::kSemiSynchronous:
      return std::make_unique<FixedPeriodScheduler>(num_processes,
                                                    constraints.c2);
    case TimingModel::kAsynchronous:
      return std::make_unique<FixedPeriodScheduler>(
          num_processes, constraints.c2.is_positive() ? constraints.c2
                                                      : Duration(1));
  }
  return std::make_unique<FixedPeriodScheduler>(num_processes, Duration(1));
}

FaultPlan grid_plan(std::int32_t crashes, std::int32_t percent,
                    bool message_passing, std::int32_t n, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (std::int32_t i = 0; i < crashes && i < n; ++i)
    plan.crashes.push_back(CrashFault{i, 1 + i});
  if (message_passing)
    plan.messages.drop_percent = static_cast<std::uint32_t>(percent);
  else
    plan.writes.corrupt_percent = static_cast<std::uint32_t>(percent);
  return plan;
}

void fill_cell(DegradationCell& cell, const Verdict& verdict,
               const std::optional<SimError>& error, bool completed,
               const FaultInjector& injector, const ProblemSpec& spec) {
  cell.outcome = classify_outcome(error, verdict);
  cell.sessions = verdict.sessions;
  cell.completed = completed;
  cell.admissible = verdict.admissible;
  cell.injected = static_cast<std::int64_t>(injector.log().size());
  cell.diagnostic = outcome_diagnostic(error, verdict, spec);
}

std::string encode_degradation_cell(const DegradationCell& cell) {
  recovery::PayloadWriter w;
  w.put_int("crashes", cell.crashes);
  w.put_int("fault_percent", cell.fault_percent);
  w.put_int("outcome", static_cast<std::int64_t>(cell.outcome));
  w.put_int("sessions", cell.sessions);
  w.put_bool("completed", cell.completed);
  w.put_bool("admissible", cell.admissible);
  w.put_int("injected", cell.injected);
  w.put("diagnostic", cell.diagnostic);
  return w.str();
}

DegradationCell decode_degradation_cell(const std::string& payload,
                                        std::int32_t crashes,
                                        std::int32_t percent) {
  DegradationCell cell;
  cell.crashes = crashes;
  cell.fault_percent = percent;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    // A cell whose every attempt failed is a diagnosed outcome: structured,
    // named, never silently dropped from the grid.
    cell.outcome = RunOutcome::kDiagnosed;
    cell.diagnostic = failure->to_string();
    return cell;
  }
  const recovery::PayloadReader r(payload);
  cell.crashes = static_cast<std::int32_t>(r.get_int("crashes", crashes));
  cell.fault_percent =
      static_cast<std::int32_t>(r.get_int("fault_percent", percent));
  const std::int64_t outcome = r.get_int("outcome", 0);
  cell.outcome = outcome == 1   ? RunOutcome::kDegraded
                 : outcome == 2 ? RunOutcome::kDiagnosed
                                : RunOutcome::kSolved;
  cell.sessions = r.get_int("sessions", 0);
  cell.completed = r.get_bool("completed", false);
  cell.admissible = r.get_bool("admissible", false);
  cell.injected = r.get_int("injected", 0);
  cell.diagnostic = r.get("diagnostic");
  return cell;
}

// Grid cells are fully independent (per-cell injector and scheduler, both
// seeded by the cell's own (k, p)); the cell list fixes the order.
template <typename Run>
DegradationReport degradation(const SweepSubstrate<Run>& sub,
                              const char* algorithm, const ProblemSpec& spec,
                              const TimingConstraints& constraints,
                              const std::vector<std::int32_t>& crash_counts,
                              const std::vector<std::int32_t>& percents,
                              std::uint64_t seed, const RunContext& ctx) {
  DegradationReport report;
  report.algorithm = algorithm;
  report.substrate = sub.name;
  std::vector<std::pair<std::int32_t, std::int32_t>> grid;
  for (const std::int32_t k : crash_counts)
    for (const std::int32_t p : percents) grid.emplace_back(k, p);
  report.cells.resize(grid.size());
  run_sweep(
      ctx, sub.name + "_degradation", "degradation." + sub.name + "_cell",
      "sim", grid.size(),
      [&](std::size_t i) {
        return obs::args_object({obs::arg_int("crashes", grid[i].first),
                                 obs::arg_int("percent", grid[i].second)});
      },
      [&](std::size_t i, obs::Observer* o) {
        const auto [k, p] = grid[i];
        FaultInjector injector(grid_plan(
            k, p, sub.message_passing, spec.n,
            seed + 131 * static_cast<std::uint64_t>(k) +
                static_cast<std::uint64_t>(p)));
        auto sched = canonical_scheduler(constraints, sub.processes);
        FixedDelay delay(constraints.d2);
        const auto out = sub.run(*sched, &delay, &injector, o);
        DegradationCell cell;
        cell.crashes = k;
        cell.fault_percent = p;
        fill_cell(cell, out.verdict, out.run.error, out.run.completed,
                  injector, spec);
        return encode_degradation_cell(cell);
      },
      [&](std::size_t i, const std::string& payload) {
        report.cells[i] =
            decode_degradation_cell(payload, grid[i].first, grid[i].second);
      });
  return report;
}

}  // namespace

std::int32_t DegradationReport::count(RunOutcome outcome) const {
  std::int32_t c = 0;
  for (const DegradationCell& cell : cells)
    if (cell.outcome == outcome) ++c;
  return c;
}

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  os << substrate << " " << algorithm << " degradation:\n";
  for (const DegradationCell& cell : cells) {
    os << "  k=" << cell.crashes << " p=" << cell.fault_percent
       << "%  " << sesp::to_string(cell.outcome)
       << "  sessions=" << cell.sessions
       << (cell.completed ? "  completed" : "  stopped")
       << "  injected=" << cell.injected << "  [" << cell.diagnostic << "]\n";
  }
  return os.str();
}

DegradationReport mpm_degradation(const ProblemSpec& spec,
                                  const TimingConstraints& constraints,
                                  const MpmAlgorithmFactory& factory,
                                  const std::vector<std::int32_t>& crash_counts,
                                  const std::vector<std::int32_t>& loss_percents,
                                  std::uint64_t seed,
                                  const MpmRunLimits& limits,
                                  const RunContext& ctx) {
  return degradation(mpm_substrate(spec, constraints, factory, limits),
                     factory.name(), spec, constraints, crash_counts,
                     loss_percents, seed, ctx.resolve());
}

DegradationReport smm_degradation(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    const SmmAlgorithmFactory& factory,
    const std::vector<std::int32_t>& crash_counts,
    const std::vector<std::int32_t>& corrupt_percents, std::uint64_t seed,
    const SmmRunLimits& limits, const RunContext& ctx) {
  return degradation(smm_substrate(spec, constraints, factory, limits),
                     factory.name(), spec, constraints, crash_counts,
                     corrupt_percents, seed, ctx.resolve());
}

// --- Chaos sweeps -----------------------------------------------------------

namespace {

// Per-run classification produced inside the sweep tasks and folded in run
// order afterwards.
struct ChaosRun {
  RunOutcome outcome = RunOutcome::kSolved;
  bool ok = true;
  std::string violation;
  std::string digest;
};

// The bucket invariants of the robustness contract (the sweep form of the
// FaultFuzz expect_contract checks): solved runs are admissible, solve and
// carry no error; degraded runs keep an admissible partial trace; diagnosed
// runs name their inadmissibility or carry a structured error; and an error
// always means the run did not complete.
template <typename RunResult>
ChaosRun classify_chaos(const RunResult& run, const Verdict& v,
                        std::uint64_t seed) {
  ChaosRun r;
  r.outcome = classify_outcome(run.error, v);
  switch (r.outcome) {
    case RunOutcome::kSolved:
      if (!v.admissible || !v.solves || run.error) {
        r.ok = false;
        r.violation = "solved bucket violated";
      }
      break;
    case RunOutcome::kDegraded:
      if (!v.admissible) {
        r.ok = false;
        r.violation = "degraded but inadmissible: " +
                      v.admissibility_violation;
      }
      break;
    case RunOutcome::kDiagnosed:
      if (v.admissible && !run.error) {
        r.ok = false;
        r.violation = "diagnosed without violation or error";
      } else if (!v.admissible && v.admissibility_violation.empty()) {
        r.ok = false;
        r.violation = "inadmissible without a named violation";
      }
      break;
  }
  if (run.error && run.completed) {
    r.ok = false;
    r.violation = "completed run carries an error";
  }
  if (!r.ok) r.violation = "seed " + std::to_string(seed) + ": " + r.violation;
  r.digest = std::to_string(seed) + ":" + sesp::to_string(r.outcome) + ":" +
             std::to_string(v.sessions) + (run.completed ? ":c;" : ":x;");
  return r;
}

void fold_chaos(ChaosReport& report, const ChaosRun& r) {
  ++report.runs;
  switch (r.outcome) {
    case RunOutcome::kSolved: ++report.solved; break;
    case RunOutcome::kDegraded: ++report.degraded; break;
    case RunOutcome::kDiagnosed: ++report.diagnosed; break;
  }
  if (!r.ok && report.contract_ok) {
    report.contract_ok = false;
    report.first_violation = r.violation;
  }
  report.digest += r.digest;
}

std::string encode_chaos_run(const ChaosRun& r) {
  recovery::PayloadWriter w;
  w.put_int("outcome", static_cast<std::int64_t>(r.outcome));
  w.put_bool("ok", r.ok);
  w.put("violation", r.violation);
  w.put("digest", r.digest);
  return w.str();
}

ChaosRun decode_chaos_run(const std::string& payload, std::uint64_t seed) {
  ChaosRun r;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    r.outcome = RunOutcome::kDiagnosed;
    r.ok = false;
    r.violation = "seed " + std::to_string(seed) + ": " + failure->to_string();
    r.digest = std::to_string(seed) + ":failed;";
    return r;
  }
  const recovery::PayloadReader reader(payload);
  const std::int64_t outcome = reader.get_int("outcome", 0);
  r.outcome = outcome == 1   ? RunOutcome::kDegraded
              : outcome == 2 ? RunOutcome::kDiagnosed
                             : RunOutcome::kSolved;
  r.ok = reader.get_bool("ok", false);
  r.violation = reader.get("violation");
  r.digest = reader.get("digest");
  return r;
}

// Schedule bounds for the chaos schedules, robust across timing models
// whose c1/c2 may be unset (zero).
Duration chaos_gap_lo(const TimingConstraints& c) {
  return c.c1.is_positive() ? c.c1 : Duration(1, 2);
}
Duration chaos_gap_hi(const TimingConstraints& c) {
  const Duration lo = chaos_gap_lo(c);
  return lo < c.c2 ? c.c2 : lo * 4;
}

// Run i draws its fault plan, schedule and delays from its own seed.
template <typename Run>
ChaosReport chaos_sweep(const SweepSubstrate<Run>& sub,
                        const TimingConstraints& constraints,
                        std::int32_t runs, std::uint64_t seed,
                        const RunContext& ctx) {
  const std::size_t count = runs > 0 ? static_cast<std::size_t>(runs) : 0;
  const Duration lo = chaos_gap_lo(constraints);
  const Duration hi = chaos_gap_hi(constraints);
  const Duration dmax =
      constraints.d2.is_positive() ? constraints.d2 : Duration(4);
  const auto run_seed = [seed](std::size_t i) {
    return seed + 2654435761ULL * i;
  };
  ChaosReport report;
  run_sweep(
      ctx, sub.name + "_chaos", "chaos." + sub.name + "_run", "sim", count,
      [&](std::size_t i) {
        return obs::args_object(
            {obs::arg_int("seed", static_cast<std::int64_t>(run_seed(i)))});
      },
      [&](std::size_t i, obs::Observer* o) {
        const std::uint64_t s = run_seed(i);
        FaultInjector injector(FaultPlan::random(s, sub.processes));
        UniformGapScheduler sched(lo, hi, s + 1);
        UniformRandomDelay delay(Duration(0), dmax, s + 2);
        const auto out = sub.run(sched, &delay, &injector, o);
        return encode_chaos_run(classify_chaos(out.run, out.verdict, s));
      },
      [&](std::size_t i, const std::string& payload) {
        fold_chaos(report, decode_chaos_run(payload, run_seed(i)));
      });
  return report;
}

}  // namespace

ChaosReport mpm_chaos_sweep(const ProblemSpec& spec,
                            const TimingConstraints& constraints,
                            const MpmAlgorithmFactory& factory,
                            std::int32_t runs, std::uint64_t seed,
                            const MpmRunLimits& limits,
                            const RunContext& ctx) {
  return chaos_sweep(mpm_substrate(spec, constraints, factory, limits),
                     constraints, runs, seed, ctx.resolve());
}

ChaosReport smm_chaos_sweep(const ProblemSpec& spec,
                            const TimingConstraints& constraints,
                            const SmmAlgorithmFactory& factory,
                            std::int32_t runs, std::uint64_t seed,
                            const SmmRunLimits& limits,
                            const RunContext& ctx) {
  return chaos_sweep(smm_substrate(spec, constraints, factory, limits),
                     constraints, runs, seed, ctx.resolve());
}

}  // namespace sesp
