#pragma once

// Greedy descriptor-level shrinker. A failing conformance case is minimized
// by mutating its *descriptor* (smaller s/n/b, simpler timing constants)
// and re-running the full pipeline; a mutation is kept only if the case
// still fails with the same first oracle and does not grow the trace. This
// shrinks at the semantic level — the reproduced witness is always a real
// simulator run, never an edited trace that no algorithm produced.

#include <cstdint>
#include <optional>
#include <string>

#include "conformance/generator.hpp"
#include "conformance/oracles.hpp"

namespace sesp::conformance {

struct ShrinkOutcome {
  CaseDescriptor minimized;
  std::string oracle;          // the preserved failure mode
  std::string detail;          // failure detail of the minimized case
  std::int64_t steps = 0;      // trace length of the minimized case
  std::int64_t attempts = 0;   // candidate evaluations
  std::int64_t accepted = 0;   // candidates that kept the failure
};

// Greedily minimizes `failing` until no candidate mutation preserves the
// failure (or `max_attempts` candidate evaluations are spent). Returns
// nullopt when the case does not fail on re-evaluation — a shrink request
// for a passing case is a caller bug worth surfacing.
std::optional<ShrinkOutcome> shrink_case(const CaseDescriptor& failing,
                                         const OracleOptions& options,
                                         const RunContext& ctx = {},
                                         std::int64_t max_attempts = 200);

}  // namespace sesp::conformance
