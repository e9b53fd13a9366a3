#pragma once

// Wall-clock span tracing for the simulators, adversaries and tools. A
// TraceSink collects structured events timed with steady_clock; Span is the
// RAII profiling scope (records one complete event with its duration on
// destruction); instant() records point events (injected faults, SimErrors,
// watchdog trips).
//
// Both tolerate a null sink: `Span s(nullptr, ...)` is a no-op, so run
// loops can write `Span s(obs ? obs->trace : nullptr, ...)` and stay
// allocation-free when no trace is attached.
//
// Serialization is JSONL, one event per line, Chrome-trace flavoured
// ("ph":"X" complete / "ph":"i" instant, microsecond timestamps) so the
// files load in standard trace viewers as well as in scripts.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sesp::obs {

struct TraceEvent {
  enum class Phase : std::uint8_t { kComplete, kInstant };

  Phase phase = Phase::kInstant;
  std::string name;      // e.g. "mpm.run", "fault.crash", "error.no_progress"
  std::string category;  // "sim" | "adversary" | "verify" | "fault" | "error"
  std::int64_t start_ns = 0;     // since sink creation
  std::int64_t duration_ns = 0;  // kComplete only
  std::int32_t depth = 0;        // span nesting depth at record time
  std::string args_json;         // pre-rendered JSON object or empty
};

class Span;

class TraceSink {
 public:
  TraceSink();

  // Nanoseconds since this sink was created.
  std::int64_t now_ns() const;

  // Wall-clock (system_clock) microseconds at sink creation, written as
  // the trace.meta anchor so a trace file can be placed in wall time.
  // Event timestamps stay steady_clock-relative.
  std::int64_t epoch_unix_us() const noexcept { return epoch_unix_us_; }

  void instant(std::string name, std::string category,
               std::string args_json = std::string());

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::int64_t dropped() const noexcept { return dropped_; }
  std::int32_t depth() const noexcept { return depth_; }

  // Safety valve: events past the cap are counted but not stored, so a
  // pathological run cannot exhaust memory through its own telemetry.
  void set_max_events(std::size_t cap) noexcept { max_events_ = cap; }

  void write_jsonl(std::ostream& os) const;

  // Folds a task shard's events into this sink (parallel sweeps give every
  // task its own sink; see docs/parallelism.md). Timestamps are re-based
  // from the shard's epoch onto ours so the merged timeline stays
  // monotone-ish in wall time; events past our cap are counted as dropped.
  void merge_from(const TraceSink& other);

 private:
  friend class Span;
  void record(TraceEvent ev);

  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_unix_us_ = 0;
  std::vector<TraceEvent> events_;
  std::int64_t dropped_ = 0;
  std::size_t max_events_ = 1'000'000;
  std::int32_t depth_ = 0;
};

// RAII profiling scope. The event is recorded when the span closes, with
// the start time and nesting depth captured at open.
class Span {
 public:
  Span(TraceSink* sink, std::string_view name, std::string_view category,
       std::string args_json = std::string());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attach or replace the rendered args object (e.g. results known only at
  // scope exit).
  void set_args(std::string args_json);

 private:
  TraceSink* sink_;
  std::string name_;
  std::string category_;
  std::string args_json_;
  std::int64_t start_ns_ = 0;
  std::int32_t depth_ = 0;
};

// Tiny helper for rendering span/instant args without pulling JsonWriter
// into every run loop: joins pre-escaped "key":value fragments.
std::string args_object(std::initializer_list<std::string> fields);
std::string arg_int(std::string_view key, std::int64_t value);
std::string arg_str(std::string_view key, std::string_view value);

}  // namespace sesp::obs
