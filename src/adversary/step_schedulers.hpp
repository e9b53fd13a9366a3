#pragma once

// Concrete step-schedule adversaries. These are the schedule families the
// paper's arguments use: exact per-process periods (synchronous, periodic,
// and the round-robin baselines of the lower-bound proofs), one slowed
// process (Theorems 4.2/4.3), uniformly random gaps inside [c1, c2]
// (semi-synchronous), bursty stalls with only a lower bound (sporadic), and
// fully scripted step lists (the retiming constructions).

#include <cstdint>
#include <vector>

#include "adversary/schedulers.hpp"
#include "util/rng.hpp"

namespace sesp {

// Process p's k-th step occurs exactly at k * periods[p] (time 0 is the
// virtual 0-th step). Models: synchronous (all periods c2) and periodic.
class FixedPeriodScheduler final : public StepScheduler {
 public:
  explicit FixedPeriodScheduler(std::vector<Duration> periods);
  // All processes share one period.
  FixedPeriodScheduler(std::int32_t num_processes, Duration period);

  Time next_step_time(ProcessId p, std::optional<Time> prev,
                      std::int64_t step_index) override;

  const std::vector<Duration>& periods() const noexcept { return periods_; }

 private:
  std::vector<Duration> periods_;
};

// Gaps drawn uniformly (on an exact rational grid) from [lo, hi].
// Semi-synchronous adversary with [c1, c2]; asynchronous MPM with (0, c2]
// (pass lo = some positive epsilon grid point).
class UniformGapScheduler final : public StepScheduler {
 public:
  UniformGapScheduler(Duration lo, Duration hi, std::uint64_t seed,
                      std::uint32_t grid = 64);

  Time next_step_time(ProcessId p, std::optional<Time> prev,
                      std::int64_t step_index) override;

 private:
  GridDraw gap_;
  Rng rng_;
};

// Sporadic adversary: gaps are usually exactly c1 but, with probability
// stall_num/stall_den per step, stretch to stall_factor * c1. Exercises the
// "no upper bound on step time" clause while keeping runs finite.
class BurstyScheduler final : public StepScheduler {
 public:
  BurstyScheduler(Duration c1, std::uint32_t stall_num,
                  std::uint32_t stall_den, std::int64_t stall_factor,
                  std::uint64_t seed);

  Time next_step_time(ProcessId p, std::optional<Time> prev,
                      std::int64_t step_index) override;

 private:
  Duration c1_;
  std::uint32_t stall_num_, stall_den_;
  std::int64_t stall_factor_;
  Rng rng_;
};

// All processes step with period `fast` except one distinguished process
// with period `slow` — the perturbation of Theorem 4.3 and the worst case
// of Theorem 4.2.
class SlowOneScheduler final : public StepScheduler {
 public:
  SlowOneScheduler(std::int32_t num_processes, Duration fast,
                   ProcessId slow_process, Duration slow);

  Time next_step_time(ProcessId p, std::optional<Time> prev,
                      std::int64_t step_index) override;

  const std::vector<Duration>& periods() const noexcept { return periods_; }

 private:
  std::vector<Duration> periods_;
};

// Fully scripted schedule: process p's k-th step at script[p][k], for p in
// [0, script.size()). Once a script is exhausted, and for any process it
// does not cover, the schedule continues with `tail_gap` between steps (so
// algorithms that run longer than the script still terminate).
class ScriptedScheduler final : public StepScheduler {
 public:
  ScriptedScheduler(std::vector<std::vector<Time>> script, Duration tail_gap);

  Time next_step_time(ProcessId p, std::optional<Time> prev,
                      std::int64_t step_index) override;

 private:
  std::vector<std::vector<Time>> script_;
  Duration tail_gap_;
};

}  // namespace sesp
