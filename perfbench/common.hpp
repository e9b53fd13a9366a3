#pragma once

// Shared vocabulary of the benchmark: options, metric maps, the
// closed-loop unit runner used by the three batch workloads, and the
// statistics helpers. Each workload lives in its own file and returns a
// WorkloadResult; main.cpp prints it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int jobs = 1;  // min(4, logical cores), fixed by main()
  // Self-test knobs: a tiny run, and a planted wrong expected value that
  // the correctness gate must catch.
  bool tiny = false;
  bool plant_wrong_expectation = false;
  // Print the values expected.hpp records for this workload, from this
  // build, before running.
  bool record_expected = false;
  // Set in the child processes setup_probe() starts: set up the workload
  // up to its first unit, then exit.
  bool setup_probe = false;
};

// Span dumps, result records and serve journals (inside the build tree).
inline constexpr const char* kOutDir = ".bench_build/perfbench-out";

struct Metric {
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // first few correctness failures
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::string report;  // human-readable detail printed before the result

  void fail(const std::string& why);
};

// --- statistics ------------------------------------------------------------

// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty set.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
// Number of samples strictly beyond the q-percentile (the "at least ten
// samples beyond it" rule for reported tails).
std::int64_t beyond(const std::vector<double>& values, double q);

std::uint64_t mix64(std::uint64_t x);
// A seed-determined permutation of [0, n).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

double seconds_between(Clock::time_point a, Clock::time_point b);
double peak_rss_mb();

// Repeated timing of a workload's set-up; setup_s is the median. The batch
// workloads set up a few times before the run and once more at the start
// of every later pass over their unit pool, so the median samples the
// host's speed across the run the way the unit medians do.
struct SetupTimes {
  explicit SetupTimes(std::function<void()> f) : setup(std::move(f)) {}
  void operator()();

  std::function<void()> setup;
  std::vector<double> seconds;
};

// A batch workload's set-up: this program started again with
// --setup-probe, from process start until the workload's first unit is
// ready (inputs built, worker pool running), then exit. Waits for the
// child; a probe that fails counts as a failure of the run.
void setup_probe(const Options& options, WorkloadResult& result);
// Set-up probes a batch workload makes before its first unit.
inline constexpr int kSetupProbes = 15;

// Starts all `jobs` threads of the library's process-wide worker pool and
// returns once each has run a task.
void start_pool(int jobs);

// --- metrics observer --------------------------------------------------------

// Value of a counter in `registry` (0 when it was never created).
std::int64_t counter(const sesp::obs::MetricsRegistry& registry,
                     const std::string& name);

// --- closed-loop unit runner -----------------------------------------------

struct UnitSample {
  double ms = 0;
  bool ok = true;
  std::string error;
  std::int64_t steps = 0;  // simulated compute steps
  std::int64_t runs = 0;   // verified runs / judged cases
  std::int64_t unit = 0;   // index into the workload's unit pool
};

struct LoopResult {
  std::vector<UnitSample> samples;
  double wall_s = 0;
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
};

// Runs units in `order`, cycling, until `seconds` have passed (at least
// `min_units` units). `run_unit(pool_index, serial)` performs one unit and
// fills everything but `ms`. `on_pass`, when set, runs untimed before every
// pass after the first. With a span store, the loop also stops once the
// store holds kMaxSpans spans, which bounds the traced run's memory.
inline constexpr std::size_t kMaxSpans = 3'000'000;
LoopResult run_loop(const std::vector<std::size_t>& order, double seconds,
                    std::size_t min_units, const SpanStore* store,
                    const std::function<UnitSample(std::size_t, std::int64_t)>&
                        run_unit,
                    const std::function<void()>& on_pass = {});

// Fills the batch end-to-end metrics from an untraced loop, checks the
// samples, and appends the sample counts to the report.
void batch_end_to_end(const LoopResult& loop, const SetupTimes& setup,
                      WorkloadResult& result);

// Common per-layer rows of a traced batch loop: obs.trace_overhead against
// the untraced loop (same unit order, common prefix) and the unattributed
// share of the self-time table.
void batch_trace_common(const LoopResult& untraced, const LoopResult& traced,
                        const SelfTimeTable& table, WorkloadResult& result);

// One traced unit: runs `body` inside a span `name`, with a fresh
// obs::TraceSink on the default observer (counting into `registry`), then
// restores `untraced` as the default observer and imports the sink's events
// under the unit's span (the import itself is a "trace.import" span).
UnitSample traced_unit(SpanStore& store, sesp::obs::MetricsRegistry& registry,
                       sesp::obs::Observer* untraced, const std::string& name,
                       std::int64_t serial,
                       const std::function<UnitSample()>& body);

// Prints the self-time table and writes the traced run's spans to
// <kOutDir>/spans-<workload>-seed<n>.jsonl.
void finish_trace(const SpanStore& store, const SelfTimeTable& table,
                  const Options& options, WorkloadResult& result);

// --- workloads ---------------------------------------------------------------

WorkloadResult run_table1_sweep(const Options& options);
WorkloadResult run_conformance_batches(const Options& options);
WorkloadResult run_exhaustive_walks(const Options& options);
WorkloadResult run_serve_mix(const Options& options);

}  // namespace perfbench
