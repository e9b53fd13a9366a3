#pragma once

// The nullable observability hook threaded through the simulators,
// verifier, experiment driver and adversaries — the same pattern as
// faults/FaultInjector: run loops accept an `obs::Observer*`, a null
// pointer means "not observed" and every hook collapses to one branch, so
// the zero-observer hot path stays allocation-free.
//
// An Observer bundles a MetricsRegistry (instrument handles are resolved by
// name once, at construction) and an optional TraceSink. Either half may be
// null: metrics-only observation (the bench records) skips all span
// bookkeeping; trace-only observation skips the counters.
//
// Observers are passed explicitly: to a single run as its `observer`
// argument, to sweeps, retimers, the exhaustive enumerator and conformance
// campaigns in a RunContext (recovery/run_context.hpp). A process-wide
// *default* observer (null unless installed, by BenchRecorder or the
// benchmark harness) is only the entry-boundary fallback: resolve() picks
// it when a public entry point is handed no observer. Below the entry
// point, observers travel explicitly (sweep tasks get shards), so a null
// observer there means the default was null too.

#include <cstdint>
#include <optional>
#include <string>

#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/ratio.hpp"

namespace sesp::obs {

struct Observer {
  Observer() = default;
  // Resolves the canonical instrument set from `metrics` (may be null).
  explicit Observer(MetricsRegistry* metrics, TraceSink* trace = nullptr);

  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  // Optional phase profiler (--profile, BenchRecorder); null = unprofiled.
  // Hot loops hoist `o ? o->profiler : nullptr` once per run.
  Profiler* profiler = nullptr;

  // Pre-resolved hot-path instruments; all null iff metrics is null. Names
  // are documented in docs/observability.md.
  Counter* runs = nullptr;                // sim.runs
  Counter* steps = nullptr;               // sim.steps
  Counter* messages_sent = nullptr;       // sim.messages.sent
  Counter* messages_delivered = nullptr;  // sim.messages.delivered
  Counter* messages_dropped = nullptr;    // sim.messages.dropped
  Counter* shared_reads = nullptr;        // sim.shared.reads
  Counter* shared_writes = nullptr;       // sim.shared.writes
  Counter* errors = nullptr;              // sim.errors
  Counter* faults_injected = nullptr;     // faults.injected
  Counter* sessions = nullptr;            // verify.sessions
  Counter* verified_runs = nullptr;       // verify.runs
  Counter* retimer_iterations = nullptr;  // adversary.retimer.iterations
  Counter* exhaustive_runs = nullptr;     // adversary.exhaustive.runs
  Gauge* pending_depth = nullptr;         // sim.pending.depth
  Gauge* event_queue_depth = nullptr;     // sim.event_queue.depth
  Histogram* step_margin = nullptr;       // sim.watchdog.step_margin
  Histogram* time_margin = nullptr;       // sim.watchdog.time_margin
  Histogram* termination_time = nullptr;  // verify.termination_time
};

// Process-wide default observer; null until installed. Returns the previous
// value so scopes can save/restore (see BenchRecorder). Install/uninstall
// from the main thread only, outside any run; read only through resolve().
Observer* default_observer() noexcept;
Observer* set_default_observer(Observer* observer) noexcept;

// Task-private observation for parallel sweeps (docs/parallelism.md).
//
// A MetricsRegistry/TraceSink pair is single-writer, so sweep layers give
// every *task* (not every worker) its own shard: the shard owns a private
// registry and sink mirroring whichever halves the parent observer has, and
// observer() hands the task an Observer resolved against them. After the
// barrier the driver calls merge_into_parent() on each shard in task-index
// order — the only ordering that makes the merged metrics and trace
// bit-identical for every worker count, including the serial path, which
// uses the same shards so jobs=1 and jobs=N run identical code.
//
// With a null parent, observer() is null and the whole shard is inert —
// unobserved sweeps stay allocation-free.
class ObservationShard {
 public:
  explicit ObservationShard(Observer* parent);

  // Observer holds pointers into our own members; pin the object (store
  // shards in a std::deque, never a reallocating vector).
  ObservationShard(const ObservationShard&) = delete;
  ObservationShard& operator=(const ObservationShard&) = delete;

  // Null iff the parent was null.
  Observer* observer() noexcept { return parent_ ? &observer_ : nullptr; }

  // Folds the shard into the parent's registry/sink. Call from the thread
  // that owns the parent, after the shard's task completed, in task order.
  void merge_into_parent();

 private:
  Observer* parent_ = nullptr;
  std::optional<MetricsRegistry> metrics_;
  std::optional<TraceSink> trace_;
  std::optional<Profiler> profiler_;
  Observer observer_;
};

// Explicit-or-default resolution at a public entry point (the simulators,
// verify, RunContext::resolve).
inline Observer* resolve(Observer* explicit_observer) noexcept {
  return explicit_observer ? explicit_observer : default_observer();
}

// --- Hook helpers (all tolerate a null observer) ---------------------------

// Every injected fault becomes a "fault.<kind>" instant trace event and a
// faults.injected count.
void observe_fault(Observer* obs, std::string_view kind, ProcessId process,
                   const Time& time);

// Every SimError becomes an "error.<code>" instant trace event and a
// sim.errors count.
void observe_error(Observer* obs, const SimError& error);

// Watchdog headroom at end of run: the unused fraction of the step and
// model-time budgets, recorded as exact ratios in [0, 1].
void observe_watchdog_margins(Observer* obs, std::int64_t steps_used,
                              std::int64_t max_steps, const Time& end_time,
                              const Time& max_time);

}  // namespace sesp::obs
