#pragma once

// Top-level conformance driver: fans `cases_per_cell` seeded cases per
// (timing model × substrate) cell out over the exec:: pool, judges each
// with the full oracle stack, aggregates per-cell statistics plus an
// order-stable digest, and greedily shrinks every recorded failure to a
// replayable witness.
//
// Determinism contract (same as every sweep in sim/experiment.hpp): the
// report — including the digest and every witness — is bit-identical for
// any job count, because each case derives all randomness from
// case_seed(seed, cell, index), results land in per-case slots, and
// aggregation/shrinking run serially in index order.
//
// Observability: every case task observes through its own ObservationShard
// of ctx.observer, merged in case order, so the merged metrics, trace and
// profile are job-count invariant like the report. The harness itself
// records a "conformance.run" span and the conformance.{cases,failures}
// counters from the calling thread. With ctx.supervisor the cases are
// checkpointed slots (docs/robustness.md).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conformance/generator.hpp"
#include "conformance/oracles.hpp"
#include "conformance/shrinker.hpp"
#include "recovery/run_context.hpp"

namespace sesp::conformance {

struct ConformanceConfig {
  std::uint64_t seed = 1;
  std::int64_t cases_per_cell = 500;
  GeneratorLimits limits;
  OracleOptions oracles;
  // Shrink recorded failures and attach witnesses.
  bool minimize = true;
  // Cap on recorded (and shrunk) failures; counts beyond it still tally.
  std::int64_t max_failures = 8;
  // Applied to every generated case (e.g. "broken-halfslack").
  std::string algorithm_override;
  // 0 = exec default (SESP_JOBS / hardware).
  std::int32_t jobs = 0;
  std::vector<TimingModel> models = all_models();
  std::vector<Substrate> substrates = all_substrates();
};

struct CellReport {
  TimingModel model = TimingModel::kSynchronous;
  Substrate substrate = Substrate::kSharedMemory;
  std::int64_t cases = 0;
  std::int64_t failures = 0;
  std::int64_t sessions_total = 0;
  std::int64_t steps_total = 0;
  std::uint64_t digest = 0;  // FNV-1a over case fragments in index order
};

struct FailureRecord {
  CaseDescriptor descriptor;  // the original failing case
  std::string oracle;
  std::string detail;
  std::optional<ShrinkOutcome> shrink;  // set when minimization ran
  std::string witness;  // write_witness() text for the minimized case
};

struct ConformanceReport {
  std::vector<CellReport> cells;
  std::int64_t total_cases = 0;
  std::int64_t total_failures = 0;
  std::string digest;  // hex fold of the cell digests, order-stable
  std::vector<FailureRecord> failures;

  bool ok() const { return total_failures == 0; }
  std::string summary() const;
};

ConformanceReport run_conformance(const ConformanceConfig& config,
                                  const RunContext& ctx = {});

}  // namespace sesp::conformance
