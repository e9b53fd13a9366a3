#include "adversary/contamination.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "adversary/step_schedulers.hpp"
#include "analysis/bounds.hpp"
#include "obs/observer.hpp"
#include "session/session_counter.hpp"
#include "sim/experiment.hpp"
#include "smm/smm_simulator.hpp"

namespace sesp {

namespace {

// ((2b-1)^t - 1) / 2, saturating at cap.
std::int64_t recurrence_bound(std::int32_t b, std::int64_t t,
                              std::int64_t cap) {
  __int128 power = 1;
  for (std::int64_t i = 0; i < t; ++i) {
    power *= 2 * b - 1;
    if (power > 2 * static_cast<__int128>(cap) + 1) return cap;
  }
  const __int128 bound = (power - 1) / 2;
  return bound > cap ? cap : static_cast<std::int64_t>(bound);
}

}  // namespace

std::string ContaminationReport::to_string() const {
  std::ostringstream os;
  os << "contamination: slowed p" << slowed_process << " to "
     << slow_period.to_string() << " (L=" << L << ", c_min=" << c_min
     << ")\n  subround |P(t)| (bound P_t): ";
  for (std::size_t t = 0; t < tainted_processes.size(); ++t)
    os << tainted_processes[t] << "(" << bound_Pt[t] << ") ";
  os << "\n  within_bound=" << (within_bound ? "yes" : "NO")
     << " sessions=" << sessions << " survived=" << (survived ? "yes" : "NO")
     << " untainted_ports=" << untainted_ports;
  if (exact_available) {
    os << "\n  exact |P(t)|: ";
    for (const std::int64_t v : exact_contaminated) os << v << " ";
    os << " exact<=taint=" << (exact_within_taint ? "yes" : "NO")
       << " exact<=P_t=" << (exact_within_bound ? "yes" : "NO");
  }
  os << "\n";
  return os.str();
}

ContaminationReport run_contamination_experiment(
    const ProblemSpec& spec, const TimingConstraints& base,
    const SmmAlgorithmFactory& factory, Duration c_min,
    Duration slow_period_override, const RunContext& ctx) {
  obs::Observer* const o = ctx.resolve().observer;
  obs::Span span(o ? o->trace : nullptr, "adversary.contamination",
                 "adversary",
                 o && o->trace
                     ? obs::args_object({obs::arg_int("n", spec.n),
                                         obs::arg_int("b", spec.b)})
                     : std::string());
  ContaminationReport report;
  report.c_min = c_min;
  report.L = bounds::floor_log(2 * spec.b - 1, 2 * spec.n - 1);
  report.slowed_process = 0;
  report.slow_period = slow_period_override.is_positive()
                           ? slow_period_override
                           : c_min * Ratio(std::max<std::int64_t>(report.L, 2));

  const std::int32_t total = smm_total_processes(spec.n, spec.b);

  // The perturbed admissible timed computation (alpha', T'): round robin at
  // c_min except the slowed port process.
  TimingConstraints perturbed = base;
  perturbed.model = TimingModel::kPeriodic;
  perturbed.periods.assign(static_cast<std::size_t>(total), c_min);
  perturbed.periods[0] = report.slow_period;

  SlowOneScheduler scheduler(total, c_min, report.slowed_process,
                             report.slow_period);
  const SmmOutcome out = run_smm_once(spec, perturbed, factory, scheduler,
                                      SmmRunLimits{}, nullptr, o);

  report.completed = out.run.completed;
  report.sessions = out.verdict.sessions;
  report.survived = out.verdict.admissible && out.verdict.solves;
  if (out.verdict.termination_time)
    report.termination = *out.verdict.termination_time;

  // --- Taint propagation over the trace -----------------------------------
  // Seed: every variable the slowed process touches (its port/scratch/uplink
  // accesses); the perturbation is only observable where p' would write.
  std::set<VarId> tainted_vars;
  for (const StepRecord& st : out.run.trace.steps())
    if (st.process == report.slowed_process && st.var != kNoVar)
      tainted_vars.insert(st.var);

  std::set<ProcessId> tainted_procs;  // excludes p' itself, as in the proof

  // Subround decomposition: minimal fragments involving every process except
  // p' (idled processes are excused, mirroring the round counter).
  std::vector<bool> idle(static_cast<std::size_t>(total), false);
  std::vector<bool> seen(static_cast<std::size_t>(total), false);
  auto subround_complete = [&]() {
    for (std::int32_t p = 0; p < total; ++p) {
      if (p == report.slowed_process) continue;
      const auto i = static_cast<std::size_t>(p);
      if (!seen[i] && !idle[i]) return false;
    }
    return true;
  };

  for (const StepRecord& st : out.run.trace.steps()) {
    if (!st.is_compute()) continue;
    const auto pi = static_cast<std::size_t>(st.process);
    if (st.idle_after) idle[pi] = true;

    if (st.process != report.slowed_process && st.var != kNoVar) {
      const bool var_tainted = tainted_vars.count(st.var) != 0;
      const bool proc_tainted = tainted_procs.count(st.process) != 0;
      if (var_tainted) tainted_procs.insert(st.process);
      if (proc_tainted || var_tainted) tainted_vars.insert(st.var);
    }

    if (st.process != report.slowed_process) {
      seen[pi] = true;
      if (subround_complete()) {
        report.tainted_processes.push_back(
            static_cast<std::int64_t>(tainted_procs.size()));
        report.tainted_variables.push_back(
            static_cast<std::int64_t>(tainted_vars.size()));
        seen.assign(seen.size(), false);
      }
    }
  }

  for (std::size_t t = 0; t < report.tainted_processes.size(); ++t) {
    const std::int64_t bound = recurrence_bound(
        spec.b, static_cast<std::int64_t>(t) + 1, total);
    report.bound_Pt.push_back(bound);
    if (report.tainted_processes[t] > bound) report.within_bound = false;
  }

  // Port processes never tainted (and not p').
  std::int64_t untainted = 0;
  for (ProcessId p = 1; p < spec.n; ++p)
    if (tainted_procs.count(p) == 0) ++untainted;
  report.untainted_ports = untainted;

  // --- Exact contamination: align against the unperturbed baseline. -------
  // Baseline (alpha): every process at c_min. Each subround of the
  // perturbed run contains exactly one step of every process except p', so
  // a process's j-th step aligns with baseline round j; its reads diverge
  // exactly when the variable it accesses (or that variable's value digest)
  // differs from the baseline's.
  TimingConstraints baseline = base;
  baseline.model = TimingModel::kPeriodic;
  baseline.periods.assign(static_cast<std::size_t>(total), c_min);
  FixedPeriodScheduler baseline_sched(total, c_min);
  const SmmOutcome base_out = run_smm_once(spec, baseline, factory,
                                           baseline_sched, SmmRunLimits{},
                                           nullptr, o);
  if (base_out.run.completed) {
    report.exact_available = true;
    std::vector<std::int64_t> first_divergence;  // per process, 1-based; 0 = never
    first_divergence.assign(static_cast<std::size_t>(total), 0);
    for (ProcessId p = 0; p < total; ++p) {
      if (p == report.slowed_process) continue;
      const auto in_base = base_out.run.trace.compute_indices(p);
      const auto in_pert = out.run.trace.compute_indices(p);
      const std::size_t common = std::min(in_base.size(), in_pert.size());
      std::int64_t diverged_at = 0;
      for (std::size_t j = 0; j < common; ++j) {
        const StepRecord& a = base_out.run.trace.steps()[in_base[j]];
        const StepRecord& b = out.run.trace.steps()[in_pert[j]];
        if (a.var != b.var || a.value_before_digest != b.value_before_digest) {
          diverged_at = static_cast<std::int64_t>(j) + 1;
          break;
        }
      }
      // A port process with identical reads but a different step count
      // idled at a different point — behavioral divergence. Relays never
      // idle; their step counts just track how long the simulation ran, so
      // only their read prefixes matter.
      if (diverged_at == 0 && p < spec.n && in_base.size() != in_pert.size())
        diverged_at = static_cast<std::int64_t>(common) + 1;
      first_divergence[static_cast<std::size_t>(p)] = diverged_at;
    }
    for (std::size_t t = 0; t < report.tainted_processes.size(); ++t) {
      std::int64_t count = 0;
      for (const std::int64_t j0 : first_divergence)
        if (j0 != 0 && j0 <= static_cast<std::int64_t>(t) + 1) ++count;
      report.exact_contaminated.push_back(count);
      if (count > report.tainted_processes[t])
        report.exact_within_taint = false;
      if (count > report.bound_Pt[t]) report.exact_within_bound = false;
    }
  }
  return report;
}

}  // namespace sesp
