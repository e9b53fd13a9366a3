#pragma once

// Event-driven executor of the shared-memory model. Builds the variable
// layout (one port variable and one scratch variable per port process, plus
// the Section-3 broadcast tree), runs port algorithms and fixed-gossip
// relays under the adversary's step schedule, and records the full timed
// computation with per-step variable digests (for the reordering machinery
// of Theorem 5.1).
//
// The event loop, the FaultInjector hooks, the watchdogs and the
// obs::Observer instrumentation are the shared event kernel's
// (sim/event_kernel.hpp, docs/performance.md "Event kernel"); the SMM adds
// shared-variable write corruption (lost updates) and the shared-variable
// read/write counters.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/schedulers.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "obs/observer.hpp"
#include "sim/event_kernel.hpp"
#include "smm/algorithm.hpp"
#include "smm/shared_memory.hpp"
#include "smm/tree_network.hpp"
#include "timing/constraints.hpp"

namespace sesp {

using SmmRunLimits = RunLimits;

struct SmmRunResult {
  TimedComputation trace;
  bool completed = false;  // every port process idled or crash-stopped
  bool hit_limit = false;
  std::int64_t compute_steps = 0;
  // Layout facts, so callers can relate measurements to the tree constants.
  std::int32_t num_relays = 0;
  std::int32_t tree_depth = 0;
  std::int64_t tree_latency_steps = 0;
  // Structured diagnostics (see MpmRunResult::error).
  std::optional<SimError> error;
  // Processes (ports or relays) crash-stopped by fault injection.
  std::vector<ProcessId> crashed;
};

// Number of processes (ports + relays) the layout for (n, b) uses; step
// schedulers and periodic period vectors must cover all of them.
std::int32_t smm_total_processes(std::int32_t n, std::int32_t b);

class SmmSimulator {
 public:
  SmmSimulator(const ProblemSpec& spec, const TimingConstraints& constraints,
               const SmmAlgorithmFactory& factory, StepScheduler& scheduler,
               FaultInjector* faults = nullptr,
               obs::Observer* observer = nullptr);

  SmmRunResult run(const RunLimits& limits = RunLimits{});

 private:
  ProblemSpec spec_;
  TimingConstraints constraints_;
  const SmmAlgorithmFactory& factory_;
  StepScheduler& scheduler_;
  FaultInjector* faults_;
  obs::Observer* observer_;
};

}  // namespace sesp
