#include "adversary/semisync_mp_retimer.hpp"

#include <algorithm>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "sim/experiment.hpp"

namespace sesp {

std::int64_t semisync_mp_safe_B(const TimingConstraints& constraints) {
  const Duration c1 = constraints.c1;
  const Duration c2 = constraints.c2;
  const Duration d2 = constraints.d2;
  if (!(c1 * 4 <= c2)) return 0;  // base period 4*c1 must fit in [c1, c2]
  // Branch A: the gap-window survival bound of Theorem 5.1 (safe form).
  const std::int64_t step_branch = ((c2 - c1) / (c1 * 2)).floor();
  // Branch B: every scaled delay (d2/2) must span a chunk and survive the
  // +-B*c1 shifts within [0, d2] — exactly the Theorem 6.5 analysis with
  // the full window u' = d2: B <= d2 / (4*c1).
  const std::int64_t delay_branch = (d2 / (c1 * 4)).floor();
  return std::max<std::int64_t>(std::min(step_branch, delay_branch), 0);
}

SporadicRetimingResult semisync_mp_retime(
    const TimedComputation& trace, const ProblemSpec& spec,
    const TimingConstraints& constraints, const RunContext& ctx) {
  const std::int64_t B = semisync_mp_safe_B(constraints);
  if (B < 1) {
    SporadicRetimingResult r;
    r.failure = "B < 1: constants too tight for the MP construction "
                "(need c2 >= 4*c1 and d2 >= 4*c1)";
    return r;
  }
  // Base period 4*c1: the scaled delay d2 * (2c1 / 4c1) = d2/2 sits exactly
  // mid-window, the [0, d2] analogue of Theorem 6.5's K.
  return half_compression_retime(trace, spec, constraints,
                                 constraints.c1 * 4, constraints.d2, B, ctx);
}

SporadicRetimingResult attack_semisync_mpm(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    const MpmAlgorithmFactory& factory, const RunContext& ctx) {
  const std::int64_t B = semisync_mp_safe_B(constraints);
  if (B < 1) {
    SporadicRetimingResult r;
    r.failure = "B < 1: constants too tight for the MP construction";
    return r;
  }
  FixedPeriodScheduler round_robin(spec.n, constraints.c1 * 4);
  FixedDelay delays(constraints.d2);
  const RunContext c = ctx.resolve();
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, round_robin, delays,
                   MpmRunLimits{}, nullptr, c.observer);
  if (!out.run.completed) {
    SporadicRetimingResult r;
    r.failure = "base run did not terminate";
    return r;
  }
  if (!out.verdict.admissible) {
    SporadicRetimingResult r;
    r.failure = "base run inadmissible: " + out.verdict.admissibility_violation;
    return r;
  }
  return semisync_mp_retime(out.run.trace, spec, constraints, c);
}

}  // namespace sesp
