#pragma once

// Executable form of the Theorem 6.5 lower-bound construction for the
// sporadic MPM. Starting from the round-robin computation with step period
// K = 2*d2*c1/(d2 - u/2) and every delay exactly d2, the retimer:
//
//  1. rescales all times (compute and delivery steps alike) by 2*c1/K, so
//     steps run every 2*c1 and delays become d2 - u/2 — still admissible;
//  2. splits the run into chunks of B = floor(u/(4*c1)) rounds;
//  3. per chunk k picks i_k != i_{k-1} and compresses p_{i_k}'s steps (and
//     the deliveries into it) onto the chunk's first half, p_{i_{k-1}}'s
//     onto the second half — each step moves by at most u/4, keeping step
//     gaps >= c1 and delays within [d2-u, d2] = [d1, d2];
//  4. reorders by the new times into beta' = phi_1 psi_1 ... phi_m psi_m,
//     where phi_k lacks p_{i_{k-1}} and psi_k lacks p_{i_k}, so at most one
//     session completes per chunk.
//
// As with the semi-synchronous retimer, every obligation is machine-checked:
// per-process order, delivery-before-receipt and unchanged per-step receive
// sets (so every process behaves identically — Lemma 6.7), sporadic
// admissibility, and the greedy session count (Lemma 6.6). Applied to an
// algorithm that terminated in Z < B*K*(s-1), the result is a certified
// admissible computation with fewer than s sessions.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "mpm/algorithm.hpp"
#include "recovery/run_context.hpp"
#include "timing/admissibility.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct SporadicRetimingResult {
  bool constructed = false;
  std::string failure;

  Ratio K;                // the base schedule's step period
  std::int64_t B = 0;     // rounds per chunk
  std::int64_t chunks = 0;

  // beta' with new times, in the new order (compute and delivery steps).
  std::vector<StepRecord> reordered;
  // The same computation (with re-indexed message records) wrapped as a
  // TimedComputation, ready for certificate packaging.
  std::optional<TimedComputation> reordered_trace;

  bool order_consistent = false;   // per-process order preserved
  bool receives_preserved = false; // every step drains the same messages
  AdmissibilityReport admissibility;
  std::int64_t sessions = 0;

  bool certificate = false;  // all checks pass and sessions < s

  std::string to_string() const;
};

// Applies the construction to a trace produced by the round-robin(K) /
// delay-d2 schedule. ctx.observer receives the retime span and the
// adversary.retimer.iterations count.
SporadicRetimingResult sporadic_retime(const TimedComputation& trace,
                                       const ProblemSpec& spec,
                                       const TimingConstraints& constraints,
                                       const RunContext& ctx = {});

// The construction's parameterized core, shared with the semi-synchronous
// MP variant (adversary/semisync_mp_retimer.hpp): expects a trace from the
// round-robin(base_period) / delay-(expected_delay) schedule, rescales by
// 2*c1/base_period, chunks into B rounds, half-compresses i_k / i_{k-1},
// reorders, and machine-checks against `check_constraints`.
SporadicRetimingResult half_compression_retime(
    const TimedComputation& trace, const ProblemSpec& spec,
    const TimingConstraints& check_constraints, const Ratio& base_period,
    const Ratio& expected_delay, std::int64_t B, const RunContext& ctx = {});

// Convenience driver: runs `factory` under the base schedule, then retimes.
SporadicRetimingResult attack_sporadic_mpm(const ProblemSpec& spec,
                                           const TimingConstraints& constraints,
                                           const MpmAlgorithmFactory& factory,
                                           const RunContext& ctx = {});

}  // namespace sesp
