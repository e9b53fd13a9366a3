#include "conformance/oracles.hpp"

#include <sstream>
#include <utility>

#include "adversary/semisync_retimer.hpp"
#include "adversary/sporadic_retimer.hpp"
#include "conformance/reference.hpp"
#include "model/trace_io.hpp"
#include "session/session_counter.hpp"
#include "sim/replay.hpp"
#include "timing/admissibility.hpp"

namespace sesp::conformance {

namespace {

void fail(CaseResult& r, std::string oracle, std::string detail) {
  r.failures.push_back({std::move(oracle), std::move(detail)});
}

void check_trace_io_and_replay(const CaseDescriptor& c,
                               const TimedComputation& trace,
                               const Verdict& verdict, obs::Observer* o,
                               CaseResult& r) {
  const std::string text = to_text(trace);
  std::string error;
  const auto parsed = trace_from_text(text, &error);
  if (!parsed) {
    fail(r, "trace-io", "serialized trace does not parse: " + error);
    return;
  }
  if (to_text(*parsed) != text) {
    fail(r, "trace-io", "re-serialization is not byte-exact");
    return;
  }
  // Constraints must round-trip exactly too (witness files embed them).
  const std::string ktext = to_text(c.constraints);
  const auto kparsed = constraints_from_text(ktext, &error);
  if (!kparsed || to_text(*kparsed) != ktext) {
    fail(r, "trace-io", "constraints round-trip failed: " + error);
    return;
  }

  // Replay the parsed trace through the simulator: same algorithm, same
  // schedule (extracted from the trace), bit-equal steps.
  const std::string alg = resolved_algorithm(c);
  ReplayReport report;
  if (c.substrate == Substrate::kSharedMemory) {
    const auto factory = make_smm_factory(alg);
    report = replay_smm(*parsed, c.spec, c.constraints, *factory, o);
  } else {
    const auto factory = make_mpm_factory(alg);
    report = replay_mpm(*parsed, c.spec, c.constraints, *factory, o);
  }
  if (!report.match) {
    std::ostringstream os;
    os << "replay diverges at step " << report.divergence << ": "
       << report.detail;
    fail(r, "replay", os.str());
    return;
  }
  // The re-verified verdict of the round-tripped trace must reproduce the
  // original verdict bit for bit.
  const Verdict again = verify(*parsed, c.spec, c.constraints, o);
  if (again.admissible != verdict.admissible ||
      again.sessions != verdict.sessions || again.solves != verdict.solves ||
      again.all_ports_idle != verdict.all_ports_idle ||
      again.termination_time != verdict.termination_time) {
    std::ostringstream os;
    os << "re-verified verdict differs: sessions " << again.sessions << " vs "
       << verdict.sessions << ", admissible " << again.admissible << " vs "
       << verdict.admissible << ", solves " << again.solves << " vs "
       << verdict.solves;
    fail(r, "replay", os.str());
  }
}

void check_references(const CaseDescriptor& c, const TimedComputation& trace,
                      const Verdict& verdict, bool mutate, CaseResult& r) {
  const std::int64_t ref = reference_count_sessions(trace, mutate);
  const std::int64_t prod = count_sessions(trace).sessions;
  if (ref != prod || prod != verdict.sessions) {
    std::ostringstream os;
    os << "session counts disagree: reference " << ref << ", counter " << prod
       << ", verdict " << verdict.sessions;
    fail(r, "sessions-ref", os.str());
  }
  const auto ref_adm = reference_check_admissible(trace, c.constraints, mutate);
  const AdmissibilityReport prod_adm = check_admissible(trace, c.constraints);
  if (ref_adm.has_value() == prod_adm.admissible) {
    std::ostringstream os;
    os << "admissibility disagrees: reference says "
       << (ref_adm ? *ref_adm : std::string("admissible")) << ", checker says "
       << (prod_adm.admissible ? std::string("admissible")
                               : prod_adm.violation);
    fail(r, "admissibility-ref", os.str());
  }
}

void check_hierarchy(const CaseDescriptor& c, const TimedComputation& trace,
                     bool check_refs, bool mutate, CaseResult& r) {
  for (const auto& [label, weaker] :
       weaker_models(c.constraints, c.substrate, trace.num_processes())) {
    const AdmissibilityReport rep = check_admissible(trace, weaker);
    if (!rep.admissible) {
      fail(r, "hierarchy",
           "not admissible under weaker model " + label + ": " +
               rep.violation);
      continue;
    }
    if (check_refs) {
      const auto ref = reference_check_admissible(trace, weaker, mutate);
      if (ref.has_value()) {
        fail(r, "hierarchy",
             "reference rejects weaker model " + label + ": " + *ref);
      }
    }
  }
}

void check_scaling(const CaseDescriptor& c, const TimedComputation& trace,
                   const Verdict& verdict, CaseResult& r) {
  static const Ratio kFactors[] = {Ratio(2), Ratio(3), Ratio(1, 2)};
  const Ratio factor = kFactors[c.seed % 3];
  const TimedComputation scaled = scale_trace(trace, factor);
  const TimingConstraints sk = scale_constraints(c.constraints, factor);
  const AdmissibilityReport rep = check_admissible(scaled, sk);
  if (!rep.admissible) {
    fail(r, "scaling",
         "time-scaling by " + factor.to_string() +
             " broke admissibility: " + rep.violation);
    return;
  }
  const std::int64_t scaled_sessions = count_sessions(scaled).sessions;
  if (scaled_sessions != verdict.sessions) {
    std::ostringstream os;
    os << "time-scaling changed the session count: " << scaled_sessions
       << " vs " << verdict.sessions;
    fail(r, "scaling", os.str());
  }
}

void check_retimer(const CaseDescriptor& c, const TimedComputation& trace,
                   const Verdict& verdict, obs::Observer* o, CaseResult& r) {
  if (c.substrate == Substrate::kSharedMemory &&
      c.model == TimingModel::kSemiSynchronous && c.schedule == 1) {
    // Lockstep semi-synchronous SMM case: apply the Theorem 5.1 reordering.
    const SemiSyncRetimingResult res =
        semisync_retime(trace, c.spec, c.constraints, 0, RunContext{o});
    if (!res.constructed) return;  // B too small for this instance — skip
    if (!res.order_consistent || !res.replay_ok ||
        !res.admissibility.admissible) {
      fail(r, "retimer",
           "semisync retimer obligation failed: " + res.to_string());
      return;
    }
    if (res.sessions > verdict.sessions || res.sessions > res.chunks) {
      std::ostringstream os;
      os << "retiming increased sessions: " << res.sessions << " vs base "
         << verdict.sessions << " (chunks " << res.chunks << ")";
      fail(r, "retimer", os.str());
    }
    return;
  }
  if (c.substrate == Substrate::kMessagePassing &&
      c.model == TimingModel::kSporadic && c.seed % 4 == 0) {
    // Budget-gated: the Theorem 6.5 attack reruns the algorithm under its
    // own base schedule, so only a deterministic quarter of sporadic MPM
    // cases pay for it.
    const auto factory = make_mpm_factory(resolved_algorithm(c));
    const SporadicRetimingResult res =
        attack_sporadic_mpm(c.spec, c.constraints, *factory, RunContext{o});
    if (!res.constructed) return;  // B = floor(u/4c1) < 1 — skip
    if (!res.order_consistent || !res.receives_preserved ||
        !res.admissibility.admissible) {
      fail(r, "retimer",
           "sporadic retimer obligation failed: " + res.to_string());
      return;
    }
    if (res.sessions > res.chunks) {
      std::ostringstream os;
      os << "sporadic retiming yields " << res.sessions
         << " sessions in " << res.chunks << " chunks";
      fail(r, "retimer", os.str());
    }
  }
}

}  // namespace

std::string CaseResult::digest_fragment() const {
  std::ostringstream os;
  os << sessions << ':' << steps;
  if (!ran) os << ":norun";
  for (const OracleFailure& f : failures) os << ':' << f.oracle;
  return os.str();
}

std::vector<std::pair<std::string, TimingConstraints>> weaker_models(
    const TimingConstraints& constraints, Substrate substrate,
    std::int32_t num_processes) {
  std::vector<std::pair<std::string, TimingConstraints>> out;
  const bool smm = substrate == Substrate::kSharedMemory;
  const auto add_async = [&](Duration c2, Duration d2) {
    out.emplace_back("asynchronous",
                     smm ? TimingConstraints::asynchronous()
                         : TimingConstraints::asynchronous(c2, d2));
  };
  switch (constraints.model) {
    case TimingModel::kSynchronous: {
      const std::vector<Duration> periods(
          static_cast<std::size_t>(num_processes), constraints.c2);
      out.emplace_back("periodic",
                       TimingConstraints::periodic(periods, constraints.d2));
      out.emplace_back("semi-synchronous",
                       TimingConstraints::semi_synchronous(
                           constraints.c2, constraints.c2, constraints.d2));
      out.emplace_back("sporadic",
                       TimingConstraints::sporadic(constraints.c2, Duration(0),
                                                   constraints.d2));
      add_async(constraints.c2, constraints.d2);
      break;
    }
    case TimingModel::kPeriodic: {
      out.emplace_back("semi-synchronous",
                       TimingConstraints::semi_synchronous(
                           constraints.c_min(), constraints.c_max(),
                           constraints.d2));
      out.emplace_back("sporadic",
                       TimingConstraints::sporadic(constraints.c_min(),
                                                   Duration(0),
                                                   constraints.d2));
      add_async(constraints.c_max(), constraints.d2);
      break;
    }
    case TimingModel::kSemiSynchronous: {
      out.emplace_back("sporadic",
                       TimingConstraints::sporadic(constraints.c1, Duration(0),
                                                   constraints.d2));
      add_async(constraints.c2, constraints.d2);
      break;
    }
    case TimingModel::kSporadic:
      // Sporadic gaps are unbounded; only the unconstrained asynchronous
      // SMM model is weaker.
      if (smm) add_async(constraints.c2, constraints.d2);
      break;
    case TimingModel::kAsynchronous:
      break;
  }
  return out;
}

TimedComputation scale_trace(const TimedComputation& tc, const Ratio& factor) {
  TimedComputation out(tc.substrate(), tc.num_processes(), tc.num_ports());
  for (const StepRecord& st : tc.steps()) {
    StepRecord copy = st;
    copy.time = st.time * factor;
    out.append(std::move(copy));
  }
  for (const MessageRecord& m : tc.messages()) out.append_message(m);
  return out;
}

TimingConstraints scale_constraints(const TimingConstraints& constraints,
                                    const Ratio& factor) {
  TimingConstraints out = constraints;
  out.c1 = constraints.c1 * factor;
  out.c2 = constraints.c2 * factor;
  out.d1 = constraints.d1 * factor;
  out.d2 = constraints.d2 * factor;
  for (Duration& p : out.periods) p = p * factor;
  return out;
}

CaseResult check_case(const CaseDescriptor& c, const OracleOptions& options,
                      const RunContext& ctx) {
  obs::Observer* const o = ctx.resolve().observer;
  CaseResult r;
  GeneratedRun run = run_case(c, o);
  if (!run.ok || !run.trace) {
    fail(r, "generator", run.error.empty() ? "run failed" : run.error);
    return r;
  }
  r.ran = true;
  const TimedComputation& trace = *run.trace;
  r.sessions = run.verdict.sessions;
  r.steps = static_cast<std::int64_t>(trace.steps().size());

  if (!run.verdict.admissible)
    fail(r, "admissible",
         "generated run is inadmissible: " + run.verdict.admissibility_violation);
  if (run.expect_solves && !run.verdict.solves) {
    std::ostringstream os;
    os << "correct algorithm failed to solve: sessions " << run.verdict.sessions
       << " of " << c.spec.s << ", all idle " << run.verdict.all_ports_idle;
    fail(r, "solves", os.str());
  }

  if (options.check_replay)
    check_trace_io_and_replay(c, trace, run.verdict, o, r);
  if (options.check_reference)
    check_references(c, trace, run.verdict, options.mutate_reference, r);
  // Hierarchy and metamorphic oracles only make claims about admissible
  // computations; skip them when the run already failed admissibility.
  if (run.verdict.admissible) {
    if (options.check_hierarchy)
      check_hierarchy(c, trace, options.check_reference,
                      options.mutate_reference, r);
    if (options.check_scaling) check_scaling(c, trace, run.verdict, r);
    if (options.check_retimer) check_retimer(c, trace, run.verdict, o, r);
  }
  return r;
}

}  // namespace sesp::conformance
