#include "faults/sim_error.hpp"

#include <sstream>

namespace sesp {

const char* to_string(SimErrorCode code) {
  switch (code) {
    case SimErrorCode::kInvalidSpec: return "invalid-spec";
    case SimErrorCode::kUnknownMessage: return "unknown-message";
    case SimErrorCode::kStepLimitExceeded: return "step-limit";
    case SimErrorCode::kTimeLimitExceeded: return "time-limit";
    case SimErrorCode::kNoProgress: return "no-progress";
    case SimErrorCode::kNonMonotonicSchedule: return "non-monotonic-schedule";
  }
  return "unknown";
}

std::string SimError::to_string() const {
  std::ostringstream os;
  os << "[" << sesp::to_string(code) << "]";
  if (step_index >= 0) os << " step=" << step_index;
  if (process != kNetworkProcess) os << " process=" << process;
  if (time) os << " t=" << *time;
  if (message != kNoMsg) os << " msg=" << message;
  if (!detail.empty()) os << " " << detail;
  return os.str();
}

}  // namespace sesp
