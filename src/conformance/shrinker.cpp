#include "conformance/shrinker.hpp"

#include <vector>

namespace sesp::conformance {

namespace {

// Candidate one-step simplifications of a descriptor, most aggressive
// first. All candidates keep the constraints valid for their model.
std::vector<CaseDescriptor> candidates(const CaseDescriptor& c) {
  std::vector<CaseDescriptor> out;
  const auto push = [&](CaseDescriptor next) { out.push_back(std::move(next)); };

  const auto with_spec = [&](std::int64_t s, std::int32_t n, std::int32_t b) {
    CaseDescriptor next = c;
    next.spec.s = s;
    next.spec.n = n;
    next.spec.b = b;
    if (next.model == TimingModel::kPeriodic) {
      // Periods must still cover every process of the shrunken system; the
      // simplest admissible choice is a single shared period.
      next.constraints.periods.assign(next.constraints.periods.size(),
                                      next.constraints.c_min());
    }
    push(std::move(next));
  };

  if (c.spec.s > 1) {
    with_spec(1, c.spec.n, c.spec.b);
    if (c.spec.s > 2) with_spec(c.spec.s / 2, c.spec.n, c.spec.b);
    with_spec(c.spec.s - 1, c.spec.n, c.spec.b);
  }
  if (c.spec.n > 2) {
    with_spec(c.spec.s, 2, c.spec.b);
    with_spec(c.spec.s, c.spec.n - 1, c.spec.b);
  }
  if (c.substrate == Substrate::kSharedMemory && c.spec.b > 2)
    with_spec(c.spec.s, c.spec.n, c.spec.b - 1);

  // Simplify timing constants without leaving the model's valid space.
  const TimingConstraints& k = c.constraints;
  if (k.model != TimingModel::kPeriodic) {
    if (k.c2 != Duration(1) && !(k.c2 < k.c1) && !(Duration(1) < k.c1) &&
        k.model != TimingModel::kSporadic) {
      CaseDescriptor next = c;
      next.constraints.c2 = Duration(1);
      if (next.constraints.c1 > next.constraints.c2)
        next.constraints.c1 = next.constraints.c2;
      push(std::move(next));
    }
    if (k.model == TimingModel::kSemiSynchronous && k.c1 != k.c2) {
      CaseDescriptor next = c;
      next.constraints.c1 = k.c2;  // collapse [c1, c2] to lockstep
      push(std::move(next));
    }
  } else if (k.periods.size() > 1) {
    bool uniform = true;
    for (const Duration& p : k.periods) uniform = uniform && p == k.periods[0];
    if (!uniform) {
      CaseDescriptor next = c;
      next.constraints.periods.assign(k.periods.size(), k.c_min());
      push(std::move(next));
    }
  }
  if (k.d1 != Duration(0) && k.model == TimingModel::kSporadic) {
    CaseDescriptor next = c;
    next.constraints.d1 = Duration(0);
    push(std::move(next));
  }
  if (Duration(1) < k.d2 && !(k.d1 > Duration(1))) {
    CaseDescriptor next = c;
    next.constraints.d2 = Duration(1);
    push(std::move(next));
  }
  if (c.schedule != 0) {
    CaseDescriptor next = c;
    next.schedule = 0;
    push(std::move(next));
  }
  return out;
}

}  // namespace

std::optional<ShrinkOutcome> shrink_case(const CaseDescriptor& failing,
                                         const OracleOptions& options,
                                         const RunContext& ctx,
                                         std::int64_t max_attempts) {
  const CaseResult base = check_case(failing, options, ctx);
  if (base.ok()) return std::nullopt;

  ShrinkOutcome out;
  out.minimized = failing;
  out.oracle = base.first_oracle();
  out.detail = base.failures.empty() ? std::string() : base.failures[0].detail;
  out.steps = base.steps;

  bool improved = true;
  while (improved && out.attempts < max_attempts) {
    improved = false;
    for (CaseDescriptor& cand : candidates(out.minimized)) {
      if (out.attempts >= max_attempts) break;
      ++out.attempts;
      const CaseResult res = check_case(cand, options, ctx);
      if (res.ok() || res.first_oracle() != out.oracle) continue;
      if (res.ran && res.steps > out.steps) continue;  // don't grow the trace
      out.minimized = std::move(cand);
      out.detail = res.failures[0].detail;
      out.steps = res.steps;
      ++out.accepted;
      improved = true;
      break;  // restart mutation scan from the new, smaller case
    }
  }
  return out;
}

}  // namespace sesp::conformance
