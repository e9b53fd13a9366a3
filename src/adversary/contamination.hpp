#pragma once

// Executable form of the Theorem 4.3 lower-bound argument for the periodic
// SMM. The proof perturbs a round-robin computation by slowing one port
// process p' to period L * c_min (L = floor(log_{2b-1}(2n-1))) and shows,
// by counting "contaminated" variables and processes per subround, that
// fewer than n processes can notice before time L * c_min: |P(t)| <=
// P_t = ((2b-1)^t - 1)/2, so any algorithm that would terminate faster has
// an admissible computation with fewer than s sessions.
//
// The mechanization runs the perturbed schedule, then propagates taint on
// the recorded trace: the seed is every variable p' writes (its absence is
// only observable there), a process is tainted when it accesses a tainted
// variable, and a variable when a tainted process accesses it. Taint
// over-approximates the proof's contamination, so checking the measured
// spread against P_t / V_t validates Lemma 4.4 on real executions, and the
// session count of the perturbed run is the violation check.

#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "recovery/run_context.hpp"
#include "smm/algorithm.hpp"
#include "timing/constraints.hpp"
#include "util/ratio.hpp"

namespace sesp {

struct ContaminationReport {
  // The perturbation's parameters.
  ProcessId slowed_process = 0;
  Duration c_min;
  Duration slow_period;
  std::int64_t L = 0;  // floor(log_{2b-1}(2n-1))

  // Lemma 4.4 validation: per subround t, the measured taint spread and the
  // recurrence bound P_t = ((2b-1)^t - 1)/2 (capped at the process count).
  std::vector<std::int64_t> tainted_processes;  // |P(t)|, t = 1..subrounds
  std::vector<std::int64_t> tainted_variables;  // cumulative |V(<=t)|
  std::vector<std::int64_t> bound_Pt;
  bool within_bound = true;

  // The paper's *exact* contamination, computed by aligning the perturbed
  // run against the unperturbed baseline (all periods c_min) and comparing,
  // per process p != p' and per aligned step j, the digest of the accessed
  // variable's value: any mismatch (including p accessing a different
  // variable) contaminates. Only defined when the baseline run completed.
  bool exact_available = false;
  std::vector<std::int64_t> exact_contaminated;  // per subround, cumulative
  // Soundness of the over-approximation: exact set counts never exceed the
  // taint counts, subround by subround.
  bool exact_within_taint = true;
  // And the exact counts respect the recurrence bound too.
  bool exact_within_bound = true;

  // Verdict on the perturbed execution.
  bool completed = false;
  std::int64_t sessions = 0;
  bool survived = false;  // still >= s sessions and terminated
  Time termination;
  // Port processes (other than p') that were never tainted by the end of
  // the trace — in the proof these idle exactly as in the unperturbed run.
  std::int64_t untainted_ports = 0;

  std::string to_string() const;
};

// Runs the slow-one perturbed schedule against `factory` and analyses the
// trace. `c_min` is the fast period; the slowed process (port 0) gets
// period L * c_min, matching the proof (or `slow_period_override` if
// positive). ctx.observer receives the span and both runs.
ContaminationReport run_contamination_experiment(
    const ProblemSpec& spec, const TimingConstraints& base,
    const SmmAlgorithmFactory& factory, Duration c_min,
    Duration slow_period_override = Duration(0), const RunContext& ctx = {});

}  // namespace sesp
