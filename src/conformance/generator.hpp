#pragma once

// Seeded generator of random admissible timed computations, one cell per
// (timing model × substrate) pair. A generated case is fully described by a
// small CaseDescriptor — model, substrate, algorithm/schedule picks, problem
// spec, timing constraints and the seed every random choice derives from —
// so any case reproduces bit-for-bit from its descriptor alone, which is
// what makes the shrinker and the witness files possible.
//
// The generator only emits (algorithm, schedule, constraints) combinations
// that are admissible by construction: the adversary families it draws from
// are exactly the per-model families of adversary/step_schedulers.hpp, and
// the constraints are sampled so every family stays inside the model's
// envelope. Whether the run really is admissible (and, for the correct
// algorithms, solving) is then *checked*, not assumed — that is oracle
// territory (oracles.hpp).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "session/verifier.hpp"
#include "sim/run_spec.hpp"
#include "timing/constraints.hpp"

namespace sesp::conformance {

// Bounds on generated instances. Conformance runs thousands of cases, so
// instances are kept deliberately tiny; the oracles are about relational
// correctness, not scale (bench/ covers scale).
struct GeneratorLimits {
  std::int64_t max_s = 3;       // sessions required
  std::int32_t max_n = 4;       // ports
  std::int32_t max_b = 3;       // SMM shared-variable bound
  std::int64_t max_constant = 6;  // cap on sampled timing constants
};

// Complete, replayable description of one generated case.
struct CaseDescriptor {
  TimingModel model = TimingModel::kSynchronous;
  Substrate substrate = Substrate::kSharedMemory;
  // Index into the cell's algorithm pool / schedule family (already reduced
  // modulo the pool size, so the value is stable under re-generation).
  std::int32_t algorithm = 0;
  std::int32_t schedule = 0;
  ProblemSpec spec;
  TimingConstraints constraints;
  std::uint64_t seed = 0;
  // When non-empty, overrides the pool pick with a named factory of the
  // sim/run_spec.hpp registry — used to point the harness at the broken
  // algorithms and by the self-test.
  std::string algorithm_override;

  std::string to_string() const;
};

// Stable per-case seed stream: mixes the run seed with the cell and case
// indices (splitmix64-style) so that any job count observes the same
// per-case randomness.
std::uint64_t case_seed(std::uint64_t base, std::uint64_t cell,
                        std::uint64_t index) noexcept;

// Derives every random choice of the case (spec, constraints, algorithm and
// schedule picks) from `seed`. Deterministic; never fails.
CaseDescriptor generate_case(TimingModel model, Substrate substrate,
                             std::uint64_t seed,
                             const GeneratorLimits& limits = {});

// The factory name the descriptor resolves to (the override if set,
// otherwise the pool pick for (model, substrate, algorithm)).
std::string resolved_algorithm(const CaseDescriptor& c);

// True when the resolved algorithm is one of the known-correct ones (the
// broken-* family returns false). Note that run_case still sets
// expect_solves for broken algorithms: every generated schedule is
// admissible for the model, so an algorithm that fails to solve is exactly
// what the harness exists to detect and shrink.
bool algorithm_expected_correct(const CaseDescriptor& c);

// The timing model a named algorithm is designed for — the model an
// --algorithm override should be exercised under. nullopt for unknown
// names.
std::optional<TimingModel> native_model(const std::string& algorithm);

// Outcome of executing a descriptor through the real simulators.
struct GeneratedRun {
  bool ok = false;          // simulator completed within limits
  std::string error;        // why not, when !ok
  // Always true today: generated schedules are admissible, so every
  // algorithm under test — including a deliberately broken one — is held to
  // the solvability contract.
  bool expect_solves = true;
  std::optional<TimedComputation> trace;
  Verdict verdict;
};

// Re-executes the case end to end: builds the factory, scheduler and (MPM)
// delay strategy from the descriptor and runs the matching simulator.
// Deterministic: equal descriptors produce byte-identical traces.
GeneratedRun run_case(const CaseDescriptor& c);

// All five models / both substrates, in the fixed order used by harness
// cell indexing and report digests.
const std::vector<TimingModel>& all_models();
const std::vector<Substrate>& all_substrates();

}  // namespace sesp::conformance
