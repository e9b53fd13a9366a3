#pragma once

// In-memory span store for the traced run, and the self-time table built
// from it.
//
// A span is one timed call into a layer's public function: name, start,
// end, parent span and the unit (cell, batch, walk, request) it belongs to.
// The benchmark records spans around its own calls. Where the library
// already emits wall-clock spans of its own (mpm.run, smm.run, p2p.run,
// verify.run and the worst-case task spans, through an obs::TraceSink on
// the default observer), those are imported under the unit span that
// caused them. Spans stay in memory until the run ends.
//
// Self time is attributed on the wall clock: every instant of the traced
// window is split evenly among the spans that are active at that instant
// and have no active child. Instants with no active span land in the
// explicit "unattributed" row, so the rows always add up to the window's
// wall time, however many threads ran in parallel.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sesp::obs {
class TraceSink;
}  // namespace sesp::obs

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::int32_t name = 0;      // index into SpanStore::names()
  std::int64_t start_ns = 0;  // since the store's epoch
  std::int64_t end_ns = -1;   // -1 while open
  std::int64_t parent = -1;   // index of the parent span, -1 for a root
  std::int64_t unit = -1;     // unit or request id
};

class SpanStore {
 public:
  SpanStore();

  std::int64_t now_ns() const;
  std::int64_t to_ns(Clock::time_point t) const;

  // All members are thread-safe. open() starts a span now and returns its
  // index; close() ends it now. add() records a span timed elsewhere.
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::int64_t unit);
  void close(std::int64_t index);
  std::int64_t add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::int64_t unit);

  // Imports the complete events of `sink` as spans under `parent`. Nesting
  // inside the sink is rebuilt from record order, depth and containment;
  // `sink_offset_ns` maps sink time onto store time. Imported spans are
  // clamped into their parent's interval.
  void import(const sesp::obs::TraceSink& sink, std::int64_t sink_offset_ns,
              std::int64_t parent, std::int64_t unit);

  std::vector<SpanRecord> spans() const;
  std::vector<std::string> names() const;
  std::size_t size() const;

  // One JSON object per span; at most `limit` spans are written, and the
  // number left out is returned through *omitted.
  bool write_jsonl(const std::string& path, const std::string& workload,
                   std::size_t limit, std::size_t* omitted) const;

 private:
  std::int32_t intern_locked(const std::string& name);

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::int32_t> name_ids_;
};

// RAII span over the enclosing scope. A null store records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanStore* store, const std::string& name, std::int64_t parent,
             std::int64_t unit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanStore* store_;
  std::int64_t id_ = -1;
};

struct SelfTimeRow {
  std::string name;
  double self_s = 0;
  double total_s = 0;  // summed span durations, overlap included
  std::int64_t count = 0;
};

struct SelfTimeTable {
  double wall_s = 0;
  double unattributed_s = 0;
  std::vector<SelfTimeRow> rows;  // by self time, descending

  const SelfTimeRow* row(const std::string& name) const;
  double self_s(const std::string& name) const;
  double total_s(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
};

// Self-time attribution over the spans that lie in
// [window_start_ns, window_end_ns).
SelfTimeTable self_time_table(const SpanStore& store,
                              std::int64_t window_start_ns,
                              std::int64_t window_end_ns);

std::string format_table(const std::string& workload,
                         const SelfTimeTable& table);

}  // namespace perfbench
