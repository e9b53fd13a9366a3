#pragma once

// What a run or sweep reports into and checkpoints through, passed
// explicitly as a trailing `const RunContext& ctx = {}` of every sweep-level
// entry point (docs/observability.md, docs/robustness.md). Both halves are
// nullable and unowned:
//
//   * observer   — metrics, trace and profiler. A sweep gives each task its
//                  own ObservationShard of it, merged in task order.
//   * supervisor — journal, task policy and interrupt draining for the one
//                  sweep the context is handed to. Tasks get contexts
//                  without it, so a nested sweep journals nothing itself.
//
// An entry point calls resolve() once: without an observer it falls back
// to the process default (obs::set_default_observer). Nothing below an
// entry point reads the default; it passes what it resolved.

#include "obs/observer.hpp"

namespace sesp {

namespace recovery {
class Supervisor;
}  // namespace recovery

struct RunContext {
  obs::Observer* observer = nullptr;
  recovery::Supervisor* supervisor = nullptr;

  RunContext resolve() const noexcept {
    return RunContext{obs::resolve(observer), supervisor};
  }

  // The supervisor was drained: the sweep's result is partial.
  bool interrupted() const noexcept;
};

}  // namespace sesp
