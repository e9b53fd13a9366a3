#pragma once

// Structured diagnostics for ill-formed executions. The paper's admissibility
// proofs quantify over well-formed computations only; once faults are
// injected (or a harness bug corrupts a schedule), the simulators must stop
// *reporting* instead of aborting. A SimError pinpoints where a run left the
// well-formed space: which step, which process, at what model time, and why.
// Every former hard-abort branch in the run loops now produces one of these
// instead.

#include <cstdint>
#include <optional>
#include <string>

#include "model/ids.hpp"
#include "util/ratio.hpp"

namespace sesp {

enum class SimErrorCode : std::uint8_t {
  kInvalidSpec,           // problem spec / topology rejected before stepping
  kUnknownMessage,        // delivery of a MsgId not in transit
  kStepLimitExceeded,     // watchdog: compute-step budget exhausted
  kTimeLimitExceeded,     // watchdog: model-time budget exhausted
  kNoProgress,            // watchdog: event time pinned (zero-gap livelock)
  kNonMonotonicSchedule,  // scheduler returned a step time before the past
};

const char* to_string(SimErrorCode code);

struct SimError {
  SimErrorCode code = SimErrorCode::kInvalidSpec;
  std::string detail;  // human-readable cause

  // Location of the failure, where known. step_index is the number of trace
  // steps recorded when the error was raised (i.e. the index the next step
  // would have had); -1 when the run never started.
  std::int64_t step_index = -1;
  ProcessId process = kNetworkProcess;
  std::optional<Time> time;
  MsgId message = kNoMsg;

  std::string to_string() const;
};

}  // namespace sesp
