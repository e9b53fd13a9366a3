#pragma once

// Concrete message-delay adversaries for the MPM: every message at the upper
// bound d2 (the worst case for all upper-bound experiments and the baseline
// of the sporadic lower-bound construction), uniformly random delays in
// [d1, d2], and a "straggler" strategy that maximizes delay into one victim
// process while keeping everything else fast.

#include <cstdint>

#include "adversary/schedulers.hpp"
#include "util/rng.hpp"

namespace sesp {

class FixedDelay final : public DelayStrategy {
 public:
  explicit FixedDelay(Duration d);

  Duration delay(ProcessId sender, ProcessId recipient, const Time& send_time,
                 MsgId id) override;

 private:
  Duration d_;
};

class UniformRandomDelay final : public DelayStrategy {
 public:
  UniformRandomDelay(Duration d1, Duration d2, std::uint64_t seed,
                     std::uint32_t grid = 64);

  Duration delay(ProcessId sender, ProcessId recipient, const Time& send_time,
                 MsgId id) override;

 private:
  GridDraw delay_;
  Rng rng_;
};

// Messages into `victim` take d2; everything else takes d1 (or the model's
// effective minimum). Starves one process of fresh information for as long
// as the model allows.
class StragglerDelay final : public DelayStrategy {
 public:
  StragglerDelay(ProcessId victim, Duration d_fast, Duration d_slow);

  Duration delay(ProcessId sender, ProcessId recipient, const Time& send_time,
                 MsgId id) override;

 private:
  ProcessId victim_;
  Duration d_fast_, d_slow_;
};

}  // namespace sesp
