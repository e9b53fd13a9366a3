#include "adversary/step_schedulers.hpp"

#include <cstdio>
#include <cstdlib>

namespace sesp {

namespace {
[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "sesp scheduler fatal: %s\n", what);
  std::abort();
}
}  // namespace

FixedPeriodScheduler::FixedPeriodScheduler(std::vector<Duration> periods)
    : periods_(std::move(periods)) {
  if (periods_.empty()) fail("FixedPeriodScheduler: no periods");
  for (const Duration& p : periods_)
    if (!p.is_positive()) fail("FixedPeriodScheduler: non-positive period");
}

FixedPeriodScheduler::FixedPeriodScheduler(std::int32_t num_processes,
                                           Duration period)
    : FixedPeriodScheduler(std::vector<Duration>(
          static_cast<std::size_t>(num_processes), period)) {}

Time FixedPeriodScheduler::next_step_time(ProcessId p,
                                          std::optional<Time> prev,
                                          std::int64_t step_index) {
  if (p < 0 || static_cast<std::size_t>(p) >= periods_.size())
    fail("FixedPeriodScheduler: unknown process");
  const Duration& period = periods_[static_cast<std::size_t>(p)];
  const Time base = prev ? *prev : Time(0);
  (void)step_index;
  return base + period;
}

UniformGapScheduler::UniformGapScheduler(Duration lo, Duration hi,
                                         std::uint64_t seed,
                                         std::uint32_t grid)
    : gap_(lo, hi, grid), rng_(seed) {
  if (!lo.is_positive() || hi < lo) fail("UniformGapScheduler: bad [lo, hi]");
}

Time UniformGapScheduler::next_step_time(ProcessId p, std::optional<Time> prev,
                                         std::int64_t step_index) {
  (void)p;
  (void)step_index;
  const Time base = prev ? *prev : Time(0);
  return base + gap_(rng_);
}

BurstyScheduler::BurstyScheduler(Duration c1, std::uint32_t stall_num,
                                 std::uint32_t stall_den,
                                 std::int64_t stall_factor, std::uint64_t seed)
    : c1_(c1),
      stall_num_(stall_num),
      stall_den_(stall_den),
      stall_factor_(stall_factor),
      rng_(seed) {
  if (!c1.is_positive()) fail("BurstyScheduler: need c1 > 0");
  if (stall_factor < 1) fail("BurstyScheduler: stall factor must be >= 1");
}

Time BurstyScheduler::next_step_time(ProcessId p, std::optional<Time> prev,
                                     std::int64_t step_index) {
  (void)p;
  (void)step_index;
  const Time base = prev ? *prev : Time(0);
  const bool stall = rng_.next_bool(stall_num_, stall_den_);
  return base + (stall ? c1_ * Ratio(stall_factor_) : c1_);
}

SlowOneScheduler::SlowOneScheduler(std::int32_t num_processes, Duration fast,
                                   ProcessId slow_process, Duration slow)
    : periods_(static_cast<std::size_t>(num_processes), fast) {
  if (slow_process < 0 || slow_process >= num_processes)
    fail("SlowOneScheduler: bad slow process");
  if (!fast.is_positive() || !slow.is_positive())
    fail("SlowOneScheduler: non-positive period");
  periods_[static_cast<std::size_t>(slow_process)] = slow;
}

Time SlowOneScheduler::next_step_time(ProcessId p, std::optional<Time> prev,
                                      std::int64_t step_index) {
  if (p < 0 || static_cast<std::size_t>(p) >= periods_.size())
    fail("SlowOneScheduler: unknown process");
  (void)step_index;
  const Time base = prev ? *prev : Time(0);
  return base + periods_[static_cast<std::size_t>(p)];
}

ScriptedScheduler::ScriptedScheduler(std::vector<std::vector<Time>> script,
                                     Duration tail_gap)
    : script_(std::move(script)), tail_gap_(tail_gap) {
  if (!tail_gap_.is_positive()) fail("ScriptedScheduler: need tail gap > 0");
}

Time ScriptedScheduler::next_step_time(ProcessId p, std::optional<Time> prev,
                                       std::int64_t step_index) {
  if (p >= 0 && static_cast<std::size_t>(p) < script_.size()) {
    const std::vector<Time>& times = script_[static_cast<std::size_t>(p)];
    if (static_cast<std::size_t>(step_index) < times.size())
      return times[static_cast<std::size_t>(step_index)];
  }
  const Time base = prev ? *prev : Time(0);
  return base + tail_gap_;
}

}  // namespace sesp
