#pragma once

// Event-driven executor of the message-passing model. The adversary (a
// StepScheduler and a DelayStrategy) fixes the timed schedule; the simulator
// runs the algorithm under it and records the full timed computation for the
// counters / checkers.
//
// Tie-breaking at equal times is adversarial for upper bounds: compute steps
// are ordered before delivery steps carrying the same timestamp, so a
// message delivered "at" a step time is only seen at the process's *next*
// step — the worst admissible interleaving.
//
// The event loop, the FaultInjector hooks, the watchdogs and the
// obs::Observer instrumentation are the shared event kernel's
// (sim/event_kernel.hpp, docs/performance.md "Event kernel").

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/schedulers.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "mpm/algorithm.hpp"
#include "obs/observer.hpp"
#include "sim/event_kernel.hpp"
#include "timing/constraints.hpp"

namespace sesp {

using MpmRunLimits = RunLimits;

struct MpmRunResult {
  TimedComputation trace;
  bool completed = false;     // every port process idled or crash-stopped
  bool hit_limit = false;     // stopped by RunLimits instead
  std::int64_t compute_steps = 0;
  std::int64_t messages_sent = 0;
  // Structured diagnostics: set when the run left the well-formed space
  // (limit/watchdog trip, network anomaly, bad spec). Never aborts.
  std::optional<SimError> error;
  // Processes crash-stopped by fault injection, in crash order.
  std::vector<ProcessId> crashed;
};

class MpmSimulator {
 public:
  // Every regular process is a port process in the MPM (its buf is its
  // port), so the system has spec.n regular processes plus the network.
  // `faults` (optional, unowned) injects the chaos plan into the run;
  // `observer` (optional, unowned) instruments it — when null, the process
  // default observer (if any) is used.
  MpmSimulator(const ProblemSpec& spec, const TimingConstraints& constraints,
               const MpmAlgorithmFactory& factory, StepScheduler& scheduler,
               DelayStrategy& delays, FaultInjector* faults = nullptr,
               obs::Observer* observer = nullptr);

  MpmRunResult run(const RunLimits& limits = RunLimits{});

 private:
  ProblemSpec spec_;
  TimingConstraints constraints_;
  const MpmAlgorithmFactory& factory_;
  StepScheduler& scheduler_;
  DelayStrategy& delays_;
  FaultInjector* faults_;
  obs::Observer* observer_;
};

}  // namespace sesp
