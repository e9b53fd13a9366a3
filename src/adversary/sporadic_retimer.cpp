#include "adversary/sporadic_retimer.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "analysis/bounds.hpp"
#include "obs/observer.hpp"
#include "session/session_counter.hpp"
#include "sim/experiment.hpp"

namespace sesp {

namespace {

SporadicRetimingResult fail(std::string why) {
  SporadicRetimingResult r;
  r.failure = std::move(why);
  return r;
}

// The process whose half-compression a step follows: the acting process for
// compute steps, the recipient for delivery steps.
ProcessId owner_of(const TimedComputation& trace, std::size_t index) {
  const StepRecord& st = trace.steps()[index];
  if (st.kind == StepKind::kCompute) return st.process;
  return trace.messages()[static_cast<std::size_t>(st.delivered)].recipient;
}

}  // namespace

std::string SporadicRetimingResult::to_string() const {
  std::ostringstream os;
  os << "sporadic retiming: constructed=" << (constructed ? "yes" : "no");
  if (!failure.empty()) os << " (" << failure << ")";
  os << " K=" << K.to_string() << " B=" << B << " chunks=" << chunks
     << " order=" << (order_consistent ? "ok" : "BAD")
     << " receives=" << (receives_preserved ? "ok" : "BAD")
     << " admissible=" << (admissibility.admissible ? "ok" : "BAD");
  if (!admissibility.admissible) os << " [" << admissibility.violation << "]";
  os << " sessions=" << sessions
     << " certificate=" << (certificate ? "YES" : "no");
  return os.str();
}

SporadicRetimingResult sporadic_retime(const TimedComputation& trace,
                                       const ProblemSpec& spec,
                                       const TimingConstraints& constraints,
                                       const RunContext& ctx) {
  const Duration c1 = constraints.c1;
  const Duration u = constraints.delay_uncertainty();
  const std::int64_t B = (u / (c1 * 4)).floor();
  if (B < 1) return fail("B < 1: the bound degenerates to c1 per session");
  const Ratio K = bounds::sporadic_K(c1, constraints.d1, constraints.d2);
  return half_compression_retime(trace, spec, constraints, K, constraints.d2,
                                 B, ctx);
}

SporadicRetimingResult half_compression_retime(
    const TimedComputation& trace, const ProblemSpec& spec,
    const TimingConstraints& check_constraints, const Ratio& base_period,
    const Ratio& expected_delay, std::int64_t B, const RunContext& ctx) {
  obs::Observer* const o = ctx.resolve().observer;
  obs::Span obs_span(o ? o->trace : nullptr,
                     "adversary.half_compression_retime", "adversary");
  const Duration c1 = check_constraints.c1;
  if (B < 1) return fail("B < 1: the bound is trivial");
  const Ratio K = base_period;
  const auto& steps = trace.steps();
  const auto& messages = trace.messages();
  if (steps.empty()) return fail("empty trace");

  // Verify the base schedule: compute steps on the base-period grid, delays
  // all equal to expected_delay.
  for (const StepRecord& st : steps) {
    if (st.kind != StepKind::kCompute) continue;
    const Ratio r = st.time / K;
    if (!r.is_integer() || !r.is_positive())
      return fail("trace is not the round-robin(base period) schedule");
  }
  for (const MessageRecord& m : messages) {
    if (!m.delivered()) continue;
    if (steps[m.deliver_step].time - steps[m.send_step].time !=
        expected_delay)
      return fail("trace delays are not uniformly the expected delay");
  }

  SporadicRetimingResult result;
  result.K = K;
  result.B = B;

  const Ratio scale = (c1 * 2) / K;      // T'' = T * scale
  const Duration span = c1 * 2 * Ratio(B);  // chunk length under T''

  // Chunk of a step (by scaled time): T'' in ((k-1)*span, k*span].
  auto chunk_of = [&](const Time& t_scaled) {
    return (t_scaled / span).ceil();
  };

  std::int64_t max_chunk = 0;
  std::vector<Time> scaled(steps.size());
  std::vector<std::int64_t> chunk(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    scaled[i] = steps[i].time * scale;
    chunk[i] = chunk_of(scaled[i]);
    max_chunk = std::max(max_chunk, chunk[i]);
  }
  result.chunks = max_chunk;

  if (spec.n < 2) return fail("need n >= 2 to alternate i_k");

  // i_0..i_m with i_k != i_{k-1}.
  std::vector<ProcessId> pick(static_cast<std::size_t>(max_chunk) + 1);
  pick[0] = 0;
  for (std::int64_t k = 1; k <= max_chunk; ++k) {
    if (o && o->retimer_iterations) o->retimer_iterations->inc();
    ProcessId cand = static_cast<ProcessId>(k % spec.n);
    if (cand == pick[static_cast<std::size_t>(k - 1)])
      cand = static_cast<ProcessId>((k + 1) % spec.n);
    pick[static_cast<std::size_t>(k)] = cand;
  }

  // Retime: p_{i_k} (and deliveries into it) onto the chunk's first half,
  // p_{i_{k-1}} onto the second half, everything else stays at T''.
  std::vector<Time> retimed(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::int64_t k = chunk[i];
    const Time t0 = span * Ratio(k - 1);
    const Time t1 = span * Ratio(k);
    const ProcessId owner = owner_of(trace, i);
    if (owner == pick[static_cast<std::size_t>(k)]) {
      retimed[i] = t0 + (scaled[i] - t0) / 2;
    } else if (owner == pick[static_cast<std::size_t>(k - 1)]) {
      retimed[i] = t1 - (t1 - scaled[i]) / 2;
    } else {
      retimed[i] = scaled[i];
    }
  }

  // Reorder by (new time, class, original index).
  std::vector<std::size_t> order(steps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Tie-break by original index: dependencies (same process, send->deliver,
  // deliver->receive) all point forward in the original order.
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (retimed[x] != retimed[y]) return retimed[x] < retimed[y];
    return x < y;
  });
  std::vector<std::size_t> new_pos(steps.size());
  for (std::size_t np = 0; np < order.size(); ++np) new_pos[order[np]] = np;

  result.reordered.reserve(steps.size());
  for (const std::size_t i : order) {
    StepRecord st = steps[i];
    st.time = retimed[i];
    result.reordered.push_back(st);
  }
  result.constructed = true;

  // --- Check: per-process compute order preserved. -------------------------
  result.order_consistent = true;
  {
    std::map<ProcessId, std::size_t> last;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].kind != StepKind::kCompute) continue;
      if (auto it = last.find(steps[i].process); it != last.end())
        if (new_pos[it->second] >= new_pos[i]) result.order_consistent = false;
      last[steps[i].process] = i;
    }
  }

  // --- Check: receive sets preserved (Lemma 6.7's state equivalence). ------
  // For each delivered message, the first compute step of the recipient
  // after the delivery in the new order must be the original receive step
  // (or absent in both).
  result.receives_preserved = true;
  {
    // Recipient compute positions in new order, per process, sorted.
    std::map<ProcessId, std::vector<std::size_t>> proc_positions;
    for (std::size_t i = 0; i < steps.size(); ++i)
      if (steps[i].kind == StepKind::kCompute)
        proc_positions[steps[i].process].push_back(new_pos[i]);
    for (auto& [p, positions] : proc_positions) {
      (void)p;
      std::sort(positions.begin(), positions.end());
    }
    for (const MessageRecord& m : messages) {
      if (!m.delivered()) continue;
      const auto& positions = proc_positions[m.recipient];
      const auto it = std::upper_bound(positions.begin(), positions.end(),
                                       new_pos[m.deliver_step]);
      if (m.received()) {
        if (it == positions.end() || *it != new_pos[m.receive_step]) {
          result.receives_preserved = false;
          break;
        }
      } else if (it != positions.end()) {
        // Undelivered-to-a-step in the original (recipient idled first);
        // must stay unreceived.
        result.receives_preserved = false;
        break;
      }
    }
  }

  // --- Check: admissibility under the target constraints. ------------------
  {
    TimedComputation reordered_tc(Substrate::kMessagePassing,
                                  trace.num_processes(), trace.num_ports());
    for (const StepRecord& st : result.reordered) reordered_tc.append(st);
    for (MessageRecord m : messages) {
      m.send_step = new_pos[m.send_step];
      if (m.delivered()) m.deliver_step = new_pos[m.deliver_step];
      if (m.received()) m.receive_step = new_pos[m.receive_step];
      reordered_tc.mutable_messages().push_back(m);
    }
    result.admissibility = check_admissible(reordered_tc, check_constraints);
    result.reordered_trace = std::move(reordered_tc);
  }

  result.sessions = count_sessions_in(result.reordered, spec.n);
  result.certificate = result.order_consistent && result.receives_preserved &&
                       result.admissibility.admissible &&
                       result.sessions < spec.s;
  return result;
}

SporadicRetimingResult attack_sporadic_mpm(const ProblemSpec& spec,
                                           const TimingConstraints& constraints,
                                           const MpmAlgorithmFactory& factory,
                                           const RunContext& ctx) {
  const RunContext c = ctx.resolve();
  const Ratio K =
      bounds::sporadic_K(constraints.c1, constraints.d1, constraints.d2);
  FixedPeriodScheduler round_robin(spec.n, K);
  FixedDelay delays(constraints.d2);
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, round_robin, delays,
                   MpmRunLimits{}, nullptr, c.observer);
  if (!out.run.completed) return fail("base run did not terminate");
  if (!out.verdict.admissible)
    return fail("base run inadmissible: " + out.verdict.admissibility_violation);
  return sporadic_retime(out.run.trace, spec, constraints, c);
}

}  // namespace sesp
