#pragma once

// Executable form of the Theorem 5.1 lower-bound construction for the
// semi-synchronous SMM. Given a computation beta produced by the lockstep
// (round-robin, period c2) schedule, the retimer:
//
//  1. splits beta into m chunks of B rounds;
//  2. builds the dependency partial order <=_beta (same process or same
//     variable, transitively closed);
//  3. per chunk, finds a port y_k whose last access sigma_k does not depend
//     on tau_k (the first access to y_{k-1}) — the existence argument from
//     [1];
//  4. retimes: ancestors of sigma_k compress to the chunk's start at c1
//     spacing, descendants of tau_k push to the chunk's end, everything
//     else keeps the uniformly compressed time T'' = T * (2*c1/c2);
//  5. reorders by the new times into beta' = phi_1 psi_1 ... phi_m psi_m.
//
// Every proof obligation is machine-checked rather than assumed: the
// reordering respects <=_beta (Lemma 5.3), replays to the same variable
// digests (Claim 5.2), is admissible for [c1, c2] (Lemma 5.4), and its
// session count is <= m (Lemma 5.5). When the input algorithm terminated in
// time Z < B*c2*(s-1), m <= s-1 and the result is a certified admissible
// computation with fewer than s sessions.
//
// Note on B: the paper uses B = min{floor(c2/2c1), floor(log_b n)}, and its
// Lemma 5.4 bounds the worst cross-chunk gap by c2; the exact worst case is
// (2B+1)*c1, which exceeds c2 by up to c1 when c2/c1 is even. We therefore
// default to the safe B = min{floor((c2-c1)/(2c1)), floor(log_b n)} — one
// step below the paper's on even ratios — and machine-check admissibility
// regardless. EXPERIMENTS.md records this correction.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "recovery/run_context.hpp"
#include "smm/algorithm.hpp"
#include "timing/admissibility.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct SemiSyncRetimingResult {
  bool constructed = false;  // steps 1-4 succeeded
  std::string failure;       // why not

  std::int64_t B = 0;        // rounds per chunk
  std::int64_t chunks = 0;   // m

  // beta', with the new times, in the new order.
  std::vector<StepRecord> reordered;
  // The same computation wrapped as a TimedComputation (set when
  // constructed), ready for certificate packaging.
  std::optional<TimedComputation> reordered_trace;

  // Machine-checked proof obligations.
  bool order_consistent = false;      // Lemma 5.3
  bool replay_ok = false;             // Claim 5.2 (digest replay)
  bool split_properties_ok = false;   // properties (ii)/(iii)
  AdmissibilityReport admissibility;  // Lemma 5.4
  std::int64_t sessions = 0;          // greedy count on beta'

  // All checks passed and sessions < s: an admissible computation on which
  // the algorithm behaves identically but fewer than s sessions occur.
  bool certificate = false;

  std::string to_string() const;
};

// The safe chunk size for the construction (see note above).
std::int64_t semisync_safe_B(const ProblemSpec& spec, Duration c1,
                             Duration c2);

// Applies the construction to a lockstep trace (every process with period
// exactly c2). `B` == 0 selects semisync_safe_B. ctx.observer receives the
// retime span and the adversary.retimer.iterations count.
SemiSyncRetimingResult semisync_retime(const TimedComputation& trace,
                                       const ProblemSpec& spec,
                                       const TimingConstraints& constraints,
                                       std::int64_t B = 0,
                                       const RunContext& ctx = {});

// Convenience driver: runs `factory` under the lockstep schedule and
// retimes the resulting trace.
SemiSyncRetimingResult attack_semisync_smm(const ProblemSpec& spec,
                                           const TimingConstraints& constraints,
                                           const SmmAlgorithmFactory& factory,
                                           std::int64_t B = 0,
                                           const RunContext& ctx = {});

// The asynchronous SM round lower bound of [2] (Theorem 1 there, which the
// Theorem 5.1 proof follows): (s-1)*floor(log_b n) rounds are necessary.
// The asynchronous model has no timing constraints, so the construction is
// the same reordering with synthetic semi-synchronous constants chosen so
// the time branch never binds (c2 = 1, c1 = 1/(2*floor(log_b n)+2), making
// B = floor(log_b n)): any computation admissible under those constants is
// trivially admissible asynchronously. A certificate here witnesses an
// admissible asynchronous computation with fewer than s sessions against an
// algorithm that terminated in fewer than B*(s-1) rounds.
SemiSyncRetimingResult attack_async_smm(const ProblemSpec& spec,
                                        const SmmAlgorithmFactory& factory,
                                        const RunContext& ctx = {});

// The synthetic constants attack_async_smm uses (exposed for certificate
// packaging and tests).
TimingConstraints async_attack_constraints(const ProblemSpec& spec);

}  // namespace sesp
