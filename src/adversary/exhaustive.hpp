#pragma once

// Exhaustive adversary for tiny instances: bounded model checking over all
// timed schedules on a discrete grid. Where the adversary *family* samples
// worst cases and the *constructions* build them for specific theorems,
// this module enumerates every admissible computation whose step gaps and
// message delays are drawn from finite choice sets, establishing the true
// worst case (on the grid) and checking correctness against every schedule
// rather than a sample.
//
// The decision tree is explored with an odometer over the lazily-consumed
// choice sequence: a run is executed with a prefix of explicit choices and
// the first option beyond it; only positions the run actually consumed are
// incremented, so exactly the reachable schedules are visited. Feasible for
// n <= 3, s <= 3 with two or three options per decision (thousands to a few
// hundred thousand runs).
//
// With jobs > 1 the top-level branch fan-out runs in parallel: the subtrees
// under the first min(2, n) gap decisions are explored speculatively and
// re-assembled in serial order, so the result — including the max_runs
// truncation point and the worst_choices tie-breaks — is bit-identical to
// the serial enumeration for every job count (docs/parallelism.md).

#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "mpm/algorithm.hpp"
#include "recovery/run_context.hpp"
#include "timing/constraints.hpp"
#include "util/ratio.hpp"

namespace sesp {

struct ExhaustiveResult {
  bool complete = false;       // enumeration finished within max_runs
  std::int64_t runs = 0;

  bool all_solved = true;      // >= s sessions and termination, every run
  bool all_admissible = true;  // machine-checked, every run
  std::int64_t min_sessions = 0;

  // True worst case over the explored grid.
  Time max_termination;
  std::vector<std::int32_t> worst_choices;  // decision string achieving it

  // First failing run's description, if any.
  std::string first_failure;

  // Decision strings are reported without trailing zeros (the canonical
  // spelling); field-wise equality backs the determinism regressions.
  bool operator==(const ExhaustiveResult&) const = default;
};

// Explores every schedule where each process's consecutive step gap is
// drawn from `gap_choices` (per decision, independently) and each message's
// delay from `delay_choices`. Choices must all be admissible for the model;
// every run is verified. Enumeration stops (complete=false) after max_runs.
// ctx.observer receives the walk's merged metrics and trace; with
// ctx.supervisor the subtrees are checkpointed slots.
ExhaustiveResult explore_mpm(const ProblemSpec& spec,
                             const TimingConstraints& constraints,
                             const MpmAlgorithmFactory& factory,
                             const std::vector<Duration>& gap_choices,
                             const std::vector<Duration>& delay_choices,
                             std::int64_t max_runs = 2'000'000,
                             const RunContext& ctx = {});

}  // namespace sesp
