#include "adversary/delay_strategies.hpp"

#include <cstdio>
#include <cstdlib>

namespace sesp {

namespace {
[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "sesp delay strategy fatal: %s\n", what);
  std::abort();
}
}  // namespace

FixedDelay::FixedDelay(Duration d) : d_(d) {
  if (d.is_negative()) fail("FixedDelay: negative delay");
}

Duration FixedDelay::delay(ProcessId, ProcessId, const Time&, MsgId) {
  return d_;
}

UniformRandomDelay::UniformRandomDelay(Duration d1, Duration d2,
                                       std::uint64_t seed, std::uint32_t grid)
    : delay_(d1, d2, grid), rng_(seed) {
  if (d1.is_negative() || d2 < d1) fail("UniformRandomDelay: bad [d1, d2]");
}

Duration UniformRandomDelay::delay(ProcessId, ProcessId, const Time&, MsgId) {
  return delay_(rng_);
}

StragglerDelay::StragglerDelay(ProcessId victim, Duration d_fast,
                               Duration d_slow)
    : victim_(victim), d_fast_(d_fast), d_slow_(d_slow) {
  if (d_fast.is_negative() || d_slow < d_fast)
    fail("StragglerDelay: need 0 <= d_fast <= d_slow");
}

Duration StragglerDelay::delay(ProcessId, ProcessId recipient, const Time&,
                               MsgId) {
  return recipient == victim_ ? d_slow_ : d_fast_;
}

}  // namespace sesp
