#pragma once

// The differential oracle stack: every generated case is executed once and
// then judged by a battery of independent oracles. A case passes only if
// *all* oracles are silent; any noise is a conformance failure carrying the
// oracle's name (stable identifiers, used by the shrinker to preserve the
// failure mode while minimizing).
//
// Oracles, in evaluation order:
//   generator        — the simulator failed to complete the run
//   admissible       — the run left the model's admissible space
//   solves           — a known-correct algorithm failed to solve (s, n)
//   trace-io         — text round-trip is not byte-exact / does not parse
//   replay           — re-executing the recorded schedule diverges, or the
//                      re-verified verdict differs (sessions, termination)
//   sessions-ref     — naive reference session count disagrees
//   admissibility-ref— naive reference admissibility verdict disagrees
//   hierarchy        — the computation fails to verify under a weaker model
//   scaling          — time-scaling (Thm 6.5 step 1) changes admissibility
//                      or the session count
//   retimer          — a retimer obligation fails, or retiming *increases*
//                      the session count (Thms 5.1 / 6.5)

#include <cstdint>
#include <string>
#include <vector>

#include "conformance/generator.hpp"
#include "recovery/run_context.hpp"
#include "timing/constraints.hpp"

namespace sesp::conformance {

struct OracleOptions {
  bool check_replay = true;
  bool check_reference = true;
  bool check_hierarchy = true;
  bool check_scaling = true;
  bool check_retimer = true;
  // Self-test: plant an off-by-one in the reference session counter (and
  // blind the reference admissibility checker) so the differential oracles
  // must fire.
  bool mutate_reference = false;
};

struct OracleFailure {
  std::string oracle;  // stable name from the table above
  std::string detail;
};

struct CaseResult {
  bool ran = false;           // simulator completed
  std::int64_t sessions = 0;  // verdict session count
  std::int64_t steps = 0;     // trace length (shrinking metric)
  std::vector<OracleFailure> failures;

  bool ok() const { return ran && failures.empty(); }
  // First failing oracle's name, or "" when the case passed.
  std::string first_oracle() const {
    return failures.empty() ? std::string() : failures.front().oracle;
  }
  // Compact, order-stable fragment folded into the harness report digest.
  std::string digest_fragment() const;
};

// The strictly-weaker timing models a computation admissible under
// `constraints` must also verify under (the containment half of the model
// hierarchy). Sporadic MPM computations have no weaker MPM model: their
// step gaps are unbounded while asynchronous MPM bounds gaps by c2.
std::vector<std::pair<std::string, TimingConstraints>> weaker_models(
    const TimingConstraints& constraints, Substrate substrate,
    std::int32_t num_processes);

// A copy of `tc` with every step time multiplied by `factor` (> 0).
TimedComputation scale_trace(const TimedComputation& tc, const Ratio& factor);
// `constraints` with every timing constant multiplied by `factor`.
TimingConstraints scale_constraints(const TimingConstraints& constraints,
                                    const Ratio& factor);

// Runs the descriptor and evaluates the full oracle stack.
// ctx.observer instruments every run, replay, verification and retiming
// the oracles perform.
CaseResult check_case(const CaseDescriptor& c, const OracleOptions& options,
                      const RunContext& ctx = {});

}  // namespace sesp::conformance
