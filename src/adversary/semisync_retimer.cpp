#include "adversary/semisync_retimer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "adversary/step_schedulers.hpp"
#include "analysis/bounds.hpp"
#include "obs/observer.hpp"
#include "session/session_counter.hpp"
#include "sim/experiment.hpp"
#include "smm/smm_simulator.hpp"

namespace sesp {

namespace {

enum Cls : std::uint8_t { kA = 0, kMid = 1, kZ = 2 };

struct Annotated {
  std::size_t orig_index;
  std::int64_t round;   // 1-based lockstep round
  std::int64_t chunk;   // 1-based chunk id
  Time new_time;
  Cls cls = kMid;
};

SemiSyncRetimingResult fail(std::string why) {
  SemiSyncRetimingResult r;
  r.failure = std::move(why);
  return r;
}

// Reachability within one chunk along direct dependency edges (previous step
// of the same process / previous step on the same variable). `forward` walks
// descendants of `from`; otherwise ancestors.
std::vector<bool> reach(const std::vector<StepRecord>& steps,
                        const std::vector<std::size_t>& chunk_steps,
                        std::size_t from, bool forward) {
  // Position of each original index inside chunk_steps.
  std::map<std::size_t, std::size_t> pos;
  for (std::size_t i = 0; i < chunk_steps.size(); ++i)
    pos[chunk_steps[i]] = i;

  std::vector<bool> mark(chunk_steps.size(), false);
  mark[pos.at(from)] = true;

  if (forward) {
    // One left-to-right sweep suffices: an edge u->v has u earlier in the
    // chunk, and marking v only depends on its nearest same-process /
    // same-variable predecessor.
    std::map<ProcessId, std::size_t> last_proc;
    std::map<VarId, std::size_t> last_var;
    for (std::size_t i = 0; i < chunk_steps.size(); ++i) {
      const StepRecord& st = steps[chunk_steps[i]];
      bool m = mark[i];
      if (auto it = last_proc.find(st.process);
          it != last_proc.end() && mark[it->second])
        m = true;
      if (st.var != kNoVar)
        if (auto it = last_var.find(st.var);
            it != last_var.end() && mark[it->second])
          m = true;
      mark[i] = m;
      last_proc[st.process] = i;
      if (st.var != kNoVar) last_var[st.var] = i;
    }
  } else {
    std::map<ProcessId, std::size_t> next_proc;
    std::map<VarId, std::size_t> next_var;
    for (std::size_t j = chunk_steps.size(); j-- > 0;) {
      const StepRecord& st = steps[chunk_steps[j]];
      bool m = mark[j];
      if (auto it = next_proc.find(st.process);
          it != next_proc.end() && mark[it->second])
        m = true;
      if (st.var != kNoVar)
        if (auto it = next_var.find(st.var);
            it != next_var.end() && mark[it->second])
          m = true;
      mark[j] = m;
      next_proc[st.process] = j;
      if (st.var != kNoVar) next_var[st.var] = j;
    }
  }
  return mark;
}

}  // namespace

std::string SemiSyncRetimingResult::to_string() const {
  std::ostringstream os;
  os << "semisync retiming: constructed=" << (constructed ? "yes" : "no");
  if (!failure.empty()) os << " (" << failure << ")";
  os << " B=" << B << " chunks=" << chunks
     << " order=" << (order_consistent ? "ok" : "BAD")
     << " replay=" << (replay_ok ? "ok" : "BAD")
     << " split=" << (split_properties_ok ? "ok" : "BAD")
     << " admissible=" << (admissibility.admissible ? "ok" : "BAD");
  if (!admissibility.admissible) os << " [" << admissibility.violation << "]";
  os << " sessions=" << sessions
     << " certificate=" << (certificate ? "YES" : "no");
  return os.str();
}

std::int64_t semisync_safe_B(const ProblemSpec& spec, Duration c1,
                             Duration c2) {
  const std::int64_t time_B = ((c2 - c1) / (c1 * 2)).floor();
  const std::int64_t log_B = bounds::floor_log(spec.b, spec.n);
  return std::min(time_B, log_B);
}

SemiSyncRetimingResult semisync_retime(const TimedComputation& trace,
                                       const ProblemSpec& spec,
                                       const TimingConstraints& constraints,
                                       std::int64_t B, const RunContext& ctx) {
  obs::Observer* const o = ctx.resolve().observer;
  obs::Span span(o ? o->trace : nullptr, "adversary.semisync_retime",
                 "adversary");
  const Duration c1 = constraints.c1;
  const Duration c2 = constraints.c2;
  if (B == 0) B = semisync_safe_B(spec, c1, c2);
  if (B < 1)
    return fail("B < 1: the bound is trivial (every process needs s steps)");

  const auto& steps = trace.steps();
  if (steps.empty()) return fail("empty trace");

  // Annotate rounds/chunks; require the lockstep schedule the construction
  // assumes.
  std::vector<Annotated> ann(steps.size());
  std::int64_t max_chunk = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].is_compute()) return fail("non-compute step in SMM trace");
    const Ratio r = steps[i].time / c2;
    if (!r.is_integer() || !r.is_positive())
      return fail("trace is not the lockstep schedule");
    ann[i].orig_index = i;
    ann[i].round = r.num();
    ann[i].chunk = (ann[i].round + B - 1) / B;
    max_chunk = std::max(max_chunk, ann[i].chunk);
  }

  SemiSyncRetimingResult result;
  result.B = B;
  result.chunks = max_chunk;

  // Group step indices by chunk (trace order == round order).
  std::vector<std::vector<std::size_t>> by_chunk(
      static_cast<std::size_t>(max_chunk));
  for (std::size_t i = 0; i < steps.size(); ++i)
    by_chunk[static_cast<std::size_t>(ann[i].chunk - 1)].push_back(i);

  const Duration compress = (c1 * 2) / c2;  // T'' = T * 2c1/c2

  PortIndex prev_port = 0;  // y_0: an arbitrary port
  std::vector<std::size_t> sigmas;  // sigma_k original index, or npos
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  for (std::int64_t k = 1; k <= max_chunk; ++k) {
    if (o && o->retimer_iterations) o->retimer_iterations->inc();
    const auto& chunk = by_chunk[static_cast<std::size_t>(k - 1)];
    const Time t0 = c1 * 2 * Ratio(B) * Ratio(k - 1);
    // The descendant suffix is anchored at the chunk's *effective* end —
    // 2*c1 per round actually present. For a partial final chunk (R < B
    // rounds) anchoring at the nominal end t0 + 2*B*c1 would stretch a
    // process's cross-chunk gap to (3B-R+1)*c1 > c2; with the effective end
    // the worst gap stays (2B+1)*c1 <= c2 (the safe-B guarantee).
    std::int64_t rounds_in_chunk = 0;
    for (const std::size_t i : chunk)
      rounds_in_chunk =
          std::max(rounds_in_chunk, ann[i].round - (k - 1) * B);
    const Time t1 = t0 + c1 * 2 * Ratio(rounds_in_chunk);

    // Which ports are accessed in this chunk, and their first/last access.
    std::map<PortIndex, std::pair<std::size_t, std::size_t>> port_access;
    for (const std::size_t i : chunk) {
      if (steps[i].port == kNoPort) continue;
      auto [it, inserted] = port_access.try_emplace(steps[i].port,
                                                    std::make_pair(i, i));
      if (!inserted) it->second.second = i;
    }

    // Default placement: uniformly compressed.
    auto place_mid = [&](std::size_t i) {
      ann[i].new_time = steps[i].time * compress;
      ann[i].cls = kMid;
    };

    // Case 1: some port untouched in this chunk — phi_k empty.
    PortIndex untouched = kNoPort;
    for (PortIndex y = 0; y < spec.n; ++y)
      if (port_access.find(y) == port_access.end()) {
        untouched = y;
        break;
      }
    if (untouched != kNoPort) {
      for (const std::size_t i : chunk) place_mid(i);
      prev_port = untouched;
      sigmas.push_back(kNone);
      continue;
    }

    // Case 2: every port accessed. tau_k = first access to y_{k-1}.
    const std::size_t tau = port_access.at(prev_port).first;
    const std::vector<bool> desc = reach(steps, chunk, tau, true);

    // Find y_k with last access not dependent on tau_k.
    std::map<std::size_t, std::size_t> pos_in_chunk;
    for (std::size_t c = 0; c < chunk.size(); ++c)
      pos_in_chunk[chunk[c]] = c;

    PortIndex chosen = kNoPort;
    std::size_t sigma = kNone;
    for (const auto& [y, firstlast] : port_access) {
      if (!desc[pos_in_chunk.at(firstlast.second)]) {
        chosen = y;
        sigma = firstlast.second;
        break;
      }
    }
    if (chosen == kNoPort) {
      return fail("chunk " + std::to_string(k) +
                  ": every port's last access depends on tau_k (influence "
                  "covered all ports)");
    }
    const std::vector<bool> anc = reach(steps, chunk, sigma, false);

    // Per-process prefix (ancestors of sigma_k) and suffix (descendants of
    // tau_k) placement.
    std::map<ProcessId, std::vector<std::size_t>> per_proc;
    for (const std::size_t i : chunk) per_proc[steps[i].process].push_back(i);

    for (const auto& [p, psteps] : per_proc) {
      (void)p;
      const std::size_t cnt = psteps.size();
      // Ancestor prefix length a, descendant suffix start z.
      std::size_t a = 0;
      for (std::size_t i = 0; i < cnt; ++i)
        if (anc[pos_in_chunk.at(psteps[i])]) a = i + 1;
      std::size_t z = cnt;  // first suffix position
      for (std::size_t i = cnt; i-- > 0;)
        if (desc[pos_in_chunk.at(psteps[i])]) z = i;
      if (a > z)
        return fail("chunk " + std::to_string(k) +
                    ": ancestor prefix overlaps descendant suffix");
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::size_t idx = psteps[i];
        if (i < a) {
          ann[idx].new_time = t0 + c1 * Ratio(static_cast<std::int64_t>(i + 1));
          ann[idx].cls = kA;
        } else if (i >= z) {
          ann[idx].new_time =
              t1 - c1 * Ratio(static_cast<std::int64_t>(cnt - 1 - i));
          ann[idx].cls = kZ;
        } else {
          place_mid(idx);
        }
      }
    }
    prev_port = chosen;
    sigmas.push_back(sigma);
  }

  // --- Reorder by (new_time, class, original index). ----------------------
  std::vector<std::size_t> order(steps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Tie-break by original index: every <=_beta dependency points forward in
  // the original order, so this can never invert one.
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (ann[x].new_time != ann[y].new_time)
      return ann[x].new_time < ann[y].new_time;
    return x < y;
  });

  result.reordered.reserve(steps.size());
  for (const std::size_t i : order) {
    StepRecord st = steps[i];
    st.time = ann[i].new_time;
    result.reordered.push_back(st);
  }
  result.constructed = true;

  std::vector<std::size_t> new_pos(steps.size());
  for (std::size_t np = 0; np < order.size(); ++np) new_pos[order[np]] = np;

  // --- Check: Lemma 5.3, order consistent with <=_beta (direct edges). ----
  result.order_consistent = true;
  {
    std::map<ProcessId, std::size_t> last_proc;
    std::map<VarId, std::size_t> last_var;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (auto it = last_proc.find(steps[i].process); it != last_proc.end())
        if (new_pos[it->second] >= new_pos[i]) result.order_consistent = false;
      if (steps[i].var != kNoVar)
        if (auto it = last_var.find(steps[i].var); it != last_var.end())
          if (new_pos[it->second] >= new_pos[i])
            result.order_consistent = false;
      last_proc[steps[i].process] = i;
      if (steps[i].var != kNoVar) last_var[steps[i].var] = i;
    }
  }

  // --- Check: Claim 5.2, digest replay. ------------------------------------
  result.replay_ok = true;
  {
    std::map<VarId, std::uint64_t> var_digest;
    // Seed with the value each variable had before its first original access.
    for (const StepRecord& st : steps)
      if (st.var != kNoVar) var_digest.try_emplace(st.var, st.value_before_digest);
    for (const StepRecord& st : result.reordered) {
      if (st.var == kNoVar) continue;
      if (var_digest.at(st.var) != st.value_before_digest) {
        result.replay_ok = false;
        break;
      }
      var_digest[st.var] = st.value_after_digest;
    }
  }

  // --- Check: split properties (ii)/(iii). ---------------------------------
  result.split_properties_ok = true;
  {
    PortIndex yprev = 0;
    for (std::int64_t k = 1; k <= max_chunk; ++k) {
      const std::size_t sigma = sigmas[static_cast<std::size_t>(k - 1)];
      PortIndex ycur = kNoPort;
      if (sigma == kNone) {
        // phi_k empty; y_k was the untouched port. Recompute it.
        std::set<PortIndex> touched;
        for (const std::size_t i : by_chunk[static_cast<std::size_t>(k - 1)])
          if (steps[i].port != kNoPort) touched.insert(steps[i].port);
        for (PortIndex y = 0; y < spec.n; ++y)
          if (!touched.count(y)) {
            ycur = y;
            break;
          }
        // (ii)/(iii) hold vacuously.
      } else {
        ycur = steps[sigma].port;
        const std::size_t split = new_pos[sigma];
        for (const std::size_t i : by_chunk[static_cast<std::size_t>(k - 1)]) {
          if (steps[i].port == yprev && new_pos[i] <= split && i != sigma)
            result.split_properties_ok = false;  // (ii) violated
          if (steps[i].port == ycur && new_pos[i] > split)
            result.split_properties_ok = false;  // (iii) violated
        }
      }
      yprev = ycur;
    }
  }

  // --- Check: Lemma 5.4, admissibility. ------------------------------------
  {
    TimedComputation reordered_tc(Substrate::kSharedMemory,
                                  trace.num_processes(), trace.num_ports());
    for (const StepRecord& st : result.reordered) reordered_tc.append(st);
    result.admissibility = check_admissible(reordered_tc, constraints);
    result.reordered_trace = std::move(reordered_tc);
  }

  // --- Lemma 5.5: sessions. -------------------------------------------------
  result.sessions = count_sessions_in(result.reordered, spec.n);

  result.certificate = result.order_consistent && result.replay_ok &&
                       result.split_properties_ok &&
                       result.admissibility.admissible &&
                       result.sessions < spec.s;
  return result;
}

SemiSyncRetimingResult attack_semisync_smm(const ProblemSpec& spec,
                                           const TimingConstraints& constraints,
                                           const SmmAlgorithmFactory& factory,
                                           std::int64_t B,
                                           const RunContext& ctx) {
  const RunContext c = ctx.resolve();
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  FixedPeriodScheduler lockstep(total, constraints.c2);
  const SmmOutcome out = run_smm_once(spec, constraints, factory, lockstep,
                                      SmmRunLimits{}, nullptr, c.observer);
  if (!out.run.completed) {
    SemiSyncRetimingResult r = fail("lockstep run did not terminate");
    return r;
  }
  return semisync_retime(out.run.trace, spec, constraints, B, c);
}

TimingConstraints async_attack_constraints(const ProblemSpec& spec) {
  const std::int64_t L =
      std::max<std::int64_t>(bounds::floor_log(spec.b, spec.n), 1);
  // c2 = 1, c1 = 1/(2L+2): floor((c2-c1)/(2c1)) = floor((2L+1)/2) = L, so
  // the safe B equals the log term and the time branch never binds.
  return TimingConstraints::semi_synchronous(Ratio(1, 2 * L + 2), Ratio(1));
}

SemiSyncRetimingResult attack_async_smm(const ProblemSpec& spec,
                                        const SmmAlgorithmFactory& factory,
                                        const RunContext& ctx) {
  return attack_semisync_smm(spec, async_attack_constraints(spec), factory, 0,
                             ctx);
}

}  // namespace sesp
