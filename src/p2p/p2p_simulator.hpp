#pragma once

// Event-driven executor of the point-to-point message-passing model: like
// MpmSimulator, but a step's broadcast only reaches the process's topology
// neighbours, carrying the sender's full accumulated knowledge (gossip
// relay). Information crosses the network in diameter hops; the
// bench_diameter experiment measures exactly that factor, which the
// abstract model's d2 subsumes (conversion note (1) of the paper).
//
// The event loop, the FaultInjector hooks, the watchdogs and the
// obs::Observer instrumentation are the shared event kernel's
// (sim/event_kernel.hpp, docs/performance.md "Event kernel").

#include <cstdint>
#include <optional>
#include <vector>

#include "adversary/schedulers.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "mpm/topology.hpp"
#include "obs/observer.hpp"
#include "p2p/algorithm.hpp"
#include "sim/event_kernel.hpp"
#include "timing/constraints.hpp"

namespace sesp {

using P2pRunLimits = RunLimits;

struct P2pRunResult {
  TimedComputation trace;
  bool completed = false;  // every port process idled or crash-stopped
  bool hit_limit = false;
  std::int64_t compute_steps = 0;
  std::int64_t messages_sent = 0;
  std::int32_t diameter = 0;
  // Structured diagnostics (see MpmRunResult::error).
  std::optional<SimError> error;
  std::vector<ProcessId> crashed;
};

class P2pSimulator {
 public:
  // The topology must have exactly spec.n nodes and be connected (checked at
  // run() time; a mismatch yields an invalid-spec SimError, not an abort).
  P2pSimulator(const ProblemSpec& spec, const TimingConstraints& constraints,
               const Topology& topology, const P2pAlgorithmFactory& factory,
               StepScheduler& scheduler, DelayStrategy& delays,
               FaultInjector* faults = nullptr,
               obs::Observer* observer = nullptr);

  P2pRunResult run(const RunLimits& limits = RunLimits{});

 private:
  ProblemSpec spec_;
  TimingConstraints constraints_;
  const Topology& topology_;
  const P2pAlgorithmFactory& factory_;
  StepScheduler& scheduler_;
  DelayStrategy& delays_;
  FaultInjector* faults_;
  obs::Observer* observer_;
};

}  // namespace sesp
