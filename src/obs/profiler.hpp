#pragma once

// Scoped phase profiler for the hot loops (docs/observability.md
// "Profiling"). A Profiler keeps one PhaseStat per fixed ProfilePhase —
// exact event counts, accumulated wall-clock, exact min/max, and a small
// ring of the most recent durations — and ProfileScope is the RAII timer
// dropped into the simulator/verifier/exec hot paths.
//
// Like the rest of src/obs, profiling is nullable: a null Profiler* makes
// ProfileScope a single-branch no-op with no clock reads, so the
// unprofiled hot path pays nothing. Phases are a closed enum (not strings)
// so record() is two clock reads plus array arithmetic — cheap enough to
// sit inside the per-event simulator loop.
//
// Concurrency follows the ObservationShard contract (docs/parallelism.md):
// a Profiler is single-writer; parallel sweeps give every task shard its
// own, and merge_from() folds shards in task-index order. Counts and
// extrema merge deterministically, so *event counts* are invariant across
// --jobs and worker counts (obs_test pins this); durations are wall-clock
// and naturally vary.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace sesp::obs {

class JsonWriter;

// Closed set of instrumented phases. Names (profile_phase_name) are the
// JSON keys in sesp-run/1 "profile" sections.
enum class ProfilePhase : std::uint8_t {
  kEventQueuePop = 0,  // sim.queue_pop    — event-queue pop + depth gauge
  kDeliver,            // sim.deliver      — message delivery (MPM/P2P)
  kProcessStep,        // sim.step         — process compute step
  kSchedule,           // sim.schedule     — next-step Ratio arithmetic
  kAdmissibility,      // verify.admissibility
  kSessionCount,       // verify.count     — session/round counting
  kExecTask,           // exec.task        — one parallel sweep task
  kServeRequest,       // serve.request    — parse→reply for one request
  kServeExec,          // serve.exec       — compute under a serve job
  kCount
};

inline constexpr int kProfilePhases = static_cast<int>(ProfilePhase::kCount);

const char* profile_phase_name(ProfilePhase phase) noexcept;

// Per-phase aggregate. `recent_ns` is a ring of the last kRecentSamples
// durations in chronological order (oldest first once wrapped).
struct PhaseStat {
  static constexpr int kRecentSamples = 32;

  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t min_ns = 0;  // meaningful only when count > 0
  std::int64_t max_ns = 0;

  std::array<std::int64_t, kRecentSamples> ring{};
  std::int32_t ring_size = 0;
  std::int32_t ring_next = 0;

  void record(std::int64_t dur_ns) noexcept;
  // Other's samples are strictly "later": counts/totals add, extrema
  // combine, and other's ring entries append after ours (keeping the last
  // kRecentSamples overall) — deterministic given a fixed merge order.
  void merge_from(const PhaseStat& other) noexcept;
  // Ring contents in chronological order.
  std::array<std::int64_t, kRecentSamples> recent() const noexcept;
};

class Profiler {
 public:
  using clock = std::chrono::steady_clock;

  void record(ProfilePhase phase, std::int64_t dur_ns) noexcept {
    stats_[static_cast<std::size_t>(phase)].record(dur_ns);
  }

  const PhaseStat& stat(ProfilePhase phase) const noexcept {
    return stats_[static_cast<std::size_t>(phase)];
  }

  // True when no phase recorded anything.
  bool empty() const noexcept;
  std::int64_t total_ns() const noexcept;

  // Folds a task shard's profiler into this one; call in task-index order
  // (same contract as MetricsRegistry::merge_from).
  void merge_from(const Profiler& other) noexcept;

  // {"sim.queue_pop":{"count":N,"total_ns":...,"min_ns":...,"max_ns":...,
  //  "mean_ns":...,"recent_ns":[...]}, ...} — phases with count 0 are
  // emitted with just {"count":0} so the key set is schema-stable.
  void write_json(JsonWriter& w) const;

  // Human-readable table (phase, count, total ms, mean/min/max µs), sorted
  // by total time descending; used by the tools' --profile stderr report.
  std::string to_string() const;

 private:
  std::array<PhaseStat, kProfilePhases> stats_{};
};

// Deterministically sampled batch timer for the per-event hot loops
// (docs/performance.md "Reading --profile tables"). The calendar-queue
// simulator cores process events in same-time lane runs; timing every run
// with a ProfileScope would put two clock reads on paths that now cost tens
// of nanoseconds. A SampledPhaseTimer instead times every kEvery-th
// begin()/end() bracket (counter-based, so which batches get timed is a
// deterministic function of the event stream — profile COUNTS stay
// invariant across --jobs and worker counts, the obs_test contract).
// count in the resulting PhaseStat is the number of SAMPLED batches, not
// events; total_ns scales accordingly.
class SampledPhaseTimer {
 public:
  static constexpr std::uint32_t kEvery = 64;  // power of two

  SampledPhaseTimer(Profiler* profiler, ProfilePhase phase) noexcept
      : profiler_(profiler), phase_(phase) {}

  void begin() noexcept {
    if (profiler_ != nullptr && (counter_++ & (kEvery - 1)) == 0) {
      timing_ = true;
      start_ = Profiler::clock::now();
    }
  }
  void end() noexcept {
    if (timing_) {
      timing_ = false;
      profiler_->record(
          phase_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Profiler::clock::now() - start_)
                      .count());
    }
  }

 private:
  Profiler* profiler_;
  ProfilePhase phase_;
  std::uint32_t counter_ = 0;
  bool timing_ = false;
  Profiler::clock::time_point start_;
};

// RAII phase timer. Null profiler: one branch, no clock reads.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, ProfilePhase phase) noexcept
      : profiler_(profiler), phase_(phase) {
    if (profiler_) start_ = Profiler::clock::now();
  }
  ~ProfileScope() {
    if (profiler_)
      profiler_->record(
          phase_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Profiler::clock::now() - start_)
                      .count());
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
  ProfilePhase phase_;
  Profiler::clock::time_point start_;
};

}  // namespace sesp::obs
