#pragma once

// Differential replay: re-execute a recorded trace's exact schedule (step
// times extracted per process, message delays per message) against an
// algorithm factory and compare the resulting computation step by step.
// Validates three things at once:
//
//  * simulator determinism — the same schedule yields the same computation;
//  * trace integrity — a transported/parsed trace still corresponds to an
//    actual execution of the named algorithm;
//  * algorithm determinism — local states depend only on the documented
//    inputs (the paper's step semantics).

#include <cstdint>
#include <string>

#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "mpm/algorithm.hpp"
#include "obs/observer.hpp"
#include "smm/algorithm.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct ReplayReport {
  bool match = false;
  // First differing step index (== steps checked when a run is a prefix of
  // the other), and a human-readable description.
  std::size_t divergence = 0;
  std::string detail;
};

// `observer` (optional, unowned) instruments the re-execution; when null
// the process default observer applies.
ReplayReport replay_smm(const TimedComputation& trace, const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const SmmAlgorithmFactory& factory,
                        obs::Observer* observer = nullptr);

ReplayReport replay_mpm(const TimedComputation& trace, const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const MpmAlgorithmFactory& factory,
                        obs::Observer* observer = nullptr);

}  // namespace sesp
