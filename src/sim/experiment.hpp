#pragma once

// One-stop experiment driver used by tests, benches and examples: runs an
// algorithm under an adversary, verifies the trace, and aggregates
// worst-case measurements over the canonical adversary family of each
// timing model (the schedule families the paper's arguments quantify over).
// The degradation API additionally sweeps crash/loss grids and classifies
// every run as solved / degraded / diagnosed — the robustness contract.
//
// The three sweep kinds (worst-case families, degradation grids, chaos
// sweeps) are each written once in experiment.cpp, parameterised by
// substrate; the mpm_* / smm_* functions below are their entry points. One
// private driver fans every sweep's independent runs out over the
// exec::parallel_for_each pool, bit-identical for every job count
// including SESP_JOBS=1: the run list is built up front, every run derives
// its RNG streams from its own (seed, run-index) pair, results land in
// per-run slots, and observability goes through per-run
// obs::ObservationShards merged in run order (docs/parallelism.md).
// sim/run_spec.hpp turns a named run (RunSpec) into calls of these.
//
// The same sweeps run under recovery::supervised_sweep: with a supervisor
// installed (tool flags --journal/--resume) each slot's result is
// checkpointed, deadline/retry task isolation applies, and an interrupted
// sweep resumes to a byte-identical report (docs/robustness.md).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "faults/degradation.hpp"
#include "faults/fault_injector.hpp"
#include "model/ids.hpp"
#include "mpm/mpm_simulator.hpp"
#include "p2p/p2p_simulator.hpp"
#include "session/verifier.hpp"
#include "smm/smm_simulator.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct MpmOutcome {
  MpmRunResult run;
  Verdict verdict;
};

struct SmmOutcome {
  SmmRunResult run;
  Verdict verdict;
};

struct P2pOutcome {
  P2pRunResult run;
  Verdict verdict;
};

// `observer` (optional, unowned) instruments the simulator run and the
// verification pass; when null the process default observer applies.
MpmOutcome run_mpm_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const MpmAlgorithmFactory& factory,
                        StepScheduler& scheduler, DelayStrategy& delays,
                        const MpmRunLimits& limits = MpmRunLimits{},
                        FaultInjector* faults = nullptr,
                        obs::Observer* observer = nullptr);

SmmOutcome run_smm_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const SmmAlgorithmFactory& factory,
                        StepScheduler& scheduler,
                        const SmmRunLimits& limits = SmmRunLimits{},
                        FaultInjector* faults = nullptr,
                        obs::Observer* observer = nullptr);

P2pOutcome run_p2p_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const Topology& topology,
                        const P2pAlgorithmFactory& factory,
                        StepScheduler& scheduler, DelayStrategy& delays,
                        const P2pRunLimits& limits = P2pRunLimits{},
                        FaultInjector* faults = nullptr,
                        obs::Observer* observer = nullptr);

// Aggregate over an adversary family.
struct WorstCase {
  std::int32_t runs = 0;
  bool all_admissible = true;
  bool all_solved = true;          // >= s sessions and termination, each run
  bool any_hit_limit = false;
  std::int64_t min_sessions = 0;
  Time max_termination = 0;        // max over completed runs
  std::int64_t max_rounds = 0;     // rounds ceiling, max over runs
  Duration max_gamma = 0;
  std::string first_failure;       // description of the first failed run
  // Which adversary first tripped a run limit and which limit it was —
  // recorded independently of first_failure so a limit hit is never masked
  // by an earlier (or later) non-limit failure.
  std::string first_limit_hit;

  // Field-wise equality, for the jobs-count determinism regressions.
  bool operator==(const WorstCase&) const = default;
};

// Runs the factory under the canonical adversaries of constraints.model:
// the deterministic worst cases (slowest periods, maximal delays, slow-one /
// straggler skews) plus `random_runs` seeded random admissible schedules.
WorstCase mpm_worst_case(const ProblemSpec& spec,
                         const TimingConstraints& constraints,
                         const MpmAlgorithmFactory& factory,
                         std::int32_t random_runs = 8,
                         std::uint64_t seed = 0x5e5510'1992ULL,
                         const MpmRunLimits& limits = MpmRunLimits{});

WorstCase smm_worst_case(const ProblemSpec& spec,
                         const TimingConstraints& constraints,
                         const SmmAlgorithmFactory& factory,
                         std::int32_t random_runs = 8,
                         std::uint64_t seed = 0x5e5510'1992ULL,
                         const SmmRunLimits& limits = SmmRunLimits{});

// --- Degradation sweeps -----------------------------------------------------
//
// For each (crashes k, fault rate p%) grid cell, one run under the model's
// canonical deterministic adversary with a seeded FaultPlan: k crash-stops
// spread over the processes plus p% message loss (MPM) or p% write
// corruption (SMM). Every cell is classified; the contract is that no cell
// ever aborts or reports a silent wrong answer.

struct DegradationCell {
  std::int32_t crashes = 0;
  std::int32_t fault_percent = 0;  // message loss (MPM) / corruption (SMM)
  RunOutcome outcome = RunOutcome::kSolved;
  std::int64_t sessions = 0;
  bool completed = false;
  bool admissible = false;
  std::int64_t injected = 0;       // total injected fault events
  std::string diagnostic;          // outcome_diagnostic() of the run

  bool operator==(const DegradationCell&) const = default;
};

struct DegradationReport {
  std::string algorithm;
  std::string substrate;
  std::vector<DegradationCell> cells;

  std::int32_t count(RunOutcome outcome) const;
  // Rendered table, one row per cell.
  std::string to_string() const;

  bool operator==(const DegradationReport&) const = default;
};

DegradationReport mpm_degradation(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    const MpmAlgorithmFactory& factory,
    const std::vector<std::int32_t>& crash_counts = {0, 1, 2},
    const std::vector<std::int32_t>& loss_percents = {0, 5, 20},
    std::uint64_t seed = 0x0FA17'1992ULL,
    const MpmRunLimits& limits = MpmRunLimits{});

DegradationReport smm_degradation(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    const SmmAlgorithmFactory& factory,
    const std::vector<std::int32_t>& crash_counts = {0, 1, 2},
    const std::vector<std::int32_t>& corrupt_percents = {0, 5, 20},
    std::uint64_t seed = 0x0FA17'1992ULL,
    const SmmRunLimits& limits = SmmRunLimits{});

// --- Chaos sweeps -----------------------------------------------------------
//
// Parallel seeded fault-plan fuzzing, the sweep form of the FaultFuzz tests:
// `runs` independent chaos runs, run r under a random admissible schedule
// and the random fault plan both derived from seed + r's own stream, each
// classified into the solved / degraded / diagnosed contract buckets.
// `digest` is an order-stable fingerprint (one fragment per run, in run
// order) used by the determinism regressions: it must be byte-identical for
// every job count.

struct ChaosReport {
  std::int32_t runs = 0;
  std::int32_t solved = 0;
  std::int32_t degraded = 0;
  std::int32_t diagnosed = 0;
  bool contract_ok = true;      // every run landed cleanly in its bucket
  std::string first_violation;  // first contract breach, if any
  std::string digest;           // "<seed>:<bucket>:<sessions>:<c|x>;" per run

  bool operator==(const ChaosReport&) const = default;
};

ChaosReport mpm_chaos_sweep(const ProblemSpec& spec,
                            const TimingConstraints& constraints,
                            const MpmAlgorithmFactory& factory,
                            std::int32_t runs = 32,
                            std::uint64_t seed = 0xC4A05'1992ULL,
                            const MpmRunLimits& limits = MpmRunLimits{});

ChaosReport smm_chaos_sweep(const ProblemSpec& spec,
                            const TimingConstraints& constraints,
                            const SmmAlgorithmFactory& factory,
                            std::int32_t runs = 32,
                            std::uint64_t seed = 0xC4A05'1992ULL,
                            const SmmRunLimits& limits = SmmRunLimits{});

}  // namespace sesp
