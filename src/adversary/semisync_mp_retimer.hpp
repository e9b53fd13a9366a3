#pragma once

// Executable form of the semi-synchronous *message-passing* lower bound
// (Table 1 row 3, from Attiya & Mavronicolas [4]):
//
//     min{ floor(c2/2c1) * c2, d2 + c2 } * (s-1).
//
// The construction mirrors Theorem 6.5's shape, with the admissibility
// target changed from "gaps >= c1, delays in [d1, d2]" to "gaps in
// [c1, c2], delays in [0, d2]":
//
//  1. run the algorithm round-robin with period c2 and all delays d2;
//  2. rescale all times by 2*c1/c2 (gaps become 2*c1, delays d2*2c1/c2);
//  3. chunk into B rounds with
//         B = min{ floor((c2-c1)/(2c1)), floor(d2/c2) },
//     so that (a) the upper semi-synchronous gap survives the
//     half-compressions ((2B+1)*c1 <= c2, the same safe-B correction as
//     Theorem 5.1) and (b) every message's scaled delay spans at least one
//     whole chunk (2*B*c1 <= d2*2c1/c2), keeping shifted delays
//     non-negative;
//  4. per chunk pick i_k != i_{k-1}; compress p_{i_k} (and deliveries into
//     it) onto the first half, p_{i_{k-1}} onto the second half; reorder.
//
// Against an algorithm that idles within fewer than B*(s-1) rounds the
// result is an admissible semi-synchronous computation with at most s-1
// sessions. As with the other constructions, every proof obligation is
// machine-checked, and the demonstrated bound B*c2*(s-1) matches the
// paper's min{...}*(s-1) up to the +-1 constants recorded in
// EXPERIMENTS.md.

#include <cstdint>

#include "adversary/sporadic_retimer.hpp"
#include "model/ids.hpp"
#include "mpm/algorithm.hpp"
#include "timing/constraints.hpp"

namespace sesp {

// Chunk size of the MP construction for these constants (0 => trivial
// bound, construction refuses).
std::int64_t semisync_mp_safe_B(const TimingConstraints& constraints);

// Applies the construction to a trace produced by the round-robin(c2) /
// delay-d2 schedule. Shares SporadicRetimingResult: the machine checks are
// identical, only the admissibility target differs.
SporadicRetimingResult semisync_mp_retime(const TimedComputation& trace,
                                          const ProblemSpec& spec,
                                          const TimingConstraints& constraints,
                                          const RunContext& ctx = {});

// Convenience driver: runs `factory` under the base schedule, then retimes.
SporadicRetimingResult attack_semisync_mpm(const ProblemSpec& spec,
                                           const TimingConstraints& constraints,
                                           const MpmAlgorithmFactory& factory,
                                           const RunContext& ctx = {});

}  // namespace sesp
