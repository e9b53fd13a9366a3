#include "session/verifier.hpp"

#include <vector>

#include "util/scratch.hpp"

namespace sesp {

namespace {

// count_all's per-port and per-process tables, recycled per thread
// (util/scratch.hpp); count_all sizes and zeroes them for each trace.
struct CountTables {
  std::vector<char> session_seen;
  std::vector<char> port_idle;
  std::vector<char> round_idle;
  std::vector<char> round_seen;
  std::vector<Time> last;
};

// The counting half of a Verdict, fused into one flat pass over the steps
// (docs/performance.md "Verifier hot path"). The separate routines it
// replaces — count_sessions, all_ports_idle, termination_time,
// count_rounds, gamma — each rescan the trace and two of them recompute the
// active prefix; here every per-step update runs once, in the single pass.
// Results are value-identical to calling the standalone routines
// (sim_core_equiv_test cross-checks them against this fusion).
struct CountedVerdict {
  std::int64_t sessions = 0;
  bool all_ports_idle = false;
  std::optional<Time> termination_time;
  RoundDecomposition rounds;
  std::optional<Duration> gamma;
};

// Also feeds every step through `adm` — the single-pass admissibility
// prover — so the admissible case (every grid-sweep trace) costs one scan
// of the trace total instead of one for counting plus one for checking.
#if defined(__GNUC__)
// The scan's step() is worth inlining here — one call per trace step — but
// it is big enough that the inliner passes on it by default.
__attribute__((flatten))
#endif
CountedVerdict count_all(const TimedComputation& tc, AdmissibilityScan& adm,
                         CountTables& tables) {
  CountedVerdict out;
  const auto& steps = tc.steps();
  const std::int32_t num_ports = tc.num_ports();
  const auto n = static_cast<std::size_t>(
      tc.num_processes() > 0 ? tc.num_processes() : 0);
  const auto ports = static_cast<std::size_t>(num_ports > 0 ? num_ports : 0);

  // Greedy session scan over the full trace (count_sessions). Byte flags
  // throughout, not vector<bool>: this loop runs once per trace step and a
  // predicted byte load beats a read-modify-write bit mask there.
  std::vector<char>& session_seen = tables.session_seen;
  session_seen.assign(ports, 0);
  std::int32_t session_missing = num_ports;

  // Port idling: all_ports_idle / termination_time / the active prefix.
  std::vector<char>& port_idle = tables.port_idle;
  port_idle.assign(ports, 0);
  std::int32_t ports_remaining = num_ports;
  bool active = true;  // still inside the active prefix

  // Round decomposition over the active prefix (count_rounds). A round is
  // complete when every process is seen-or-idle; `covered` counts processes
  // in that union so the completeness test is one compare instead of a loop
  // (a process enters the union at most once per round, and resetting the
  // seen flags shrinks the union back to the idle set).
  std::vector<char>& round_idle = tables.round_idle;
  std::vector<char>& round_seen = tables.round_seen;
  round_idle.assign(n, 0);
  round_seen.assign(n, 0);
  std::size_t distinct = 0;
  std::size_t covered = 0;
  std::size_t idle_count = 0;

  // Largest step gap over the active prefix (gamma); time 0 is the virtual
  // predecessor, which zero-initialization encodes. The scan computes the
  // same per-process gaps; reuse its subtraction whenever it offers one
  // (it stops offering after an anomaly, so keep `last` updated regardless).
  std::vector<Time>& last = tables.last;
  last.assign(n, Time(0));
  std::optional<Duration> gamma;

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepRecord& st = steps[i];
    const Duration* scan_gap = adm.step(st);

    if (num_ports > 0 && st.is_port_step()) {
      const auto port = static_cast<std::size_t>(st.port);
      if (port < session_seen.size() && !session_seen[port]) {
        session_seen[port] = 1;
        if (--session_missing == 0) {
          ++out.sessions;
          session_seen.assign(session_seen.size(), 0);
          session_missing = num_ports;
        }
      }
    }

    if (!st.is_compute()) continue;

    if (active && st.process >= 0 &&
        static_cast<std::size_t>(st.process) < n) {
      const auto p = static_cast<std::size_t>(st.process);
      const Duration gap = scan_gap ? *scan_gap : st.time - last[p];
      if (!gamma || *gamma < gap) gamma = gap;
      last[p] = st.time;

      if (!round_seen[p]) {
        round_seen[p] = 1;
        ++distinct;
        if (!round_idle[p]) ++covered;
      }
      if (st.idle_after && !round_idle[p]) {
        round_idle[p] = 1;
        ++idle_count;
        if (!round_seen[p]) ++covered;
      }
      if (covered == n) {
        ++out.rounds.full_rounds;
        round_seen.assign(n, 0);
        distinct = 0;
        covered = idle_count;
      }
    }

    // The prefix ends ON the step where the last port idles, so this runs
    // after the round/gamma updates for that step.
    if (active && st.idle_after && st.process >= 0 &&
        st.process < num_ports &&
        !port_idle[static_cast<std::size_t>(st.process)]) {
      port_idle[static_cast<std::size_t>(st.process)] = true;
      if (--ports_remaining == 0) {
        out.all_ports_idle = true;
        out.termination_time = st.time;
        active = false;
      }
    }
  }

  out.rounds.partial_tail = distinct > 0;
  out.gamma = gamma;
  return out;
}

}  // namespace

Verdict verify(const TimedComputation& tc, const ProblemSpec& spec,
               const TimingConstraints& constraints,
               obs::Observer* observer) {
  obs::Observer* const o = obs::resolve(observer);
  obs::Profiler* const prof = o ? o->profiler : nullptr;
  obs::Span span(o ? o->trace : nullptr, "verify.run", "verify");
  Verdict v;
  AdmissibilityScan adm_scan(tc, constraints);
  {
    obs::ProfileScope ps(prof, obs::ProfilePhase::kSessionCount);
    Recycled<CountTables> tables;
    CountedVerdict counted = count_all(tc, adm_scan, *tables);
    v.sessions = counted.sessions;
    v.all_ports_idle = counted.all_ports_idle;
    v.solves = v.sessions >= spec.s && v.all_ports_idle;
    v.termination_time = counted.termination_time;
    v.rounds = counted.rounds;
    v.gamma = counted.gamma;
  }

  {
    obs::ProfileScope ps(prof, obs::ProfilePhase::kAdmissibility);
    adm_scan.messages();
    if (adm_scan.proven() && !constraints.validate()) {
      // The fused scan proved every admissibility check; the precise path
      // would report no violation, so skip its rescans.
      v.admissible = true;
    } else {
      const AdmissibilityReport adm = check_admissible(tc, constraints);
      v.admissible = adm.admissible;
      v.admissibility_violation = adm.violation;
      v.violation_site = adm.site;
    }
  }
  if (o) {
    if (o->verified_runs) o->verified_runs->inc();
    if (o->sessions && v.sessions > 0) o->sessions->inc(v.sessions);
    if (o->termination_time && v.termination_time)
      o->termination_time->observe(*v.termination_time);
  }
  if (o && o->trace)
    span.set_args(obs::args_object(
        {obs::arg_int("sessions", v.sessions),
         obs::arg_int("admissible", v.admissible ? 1 : 0),
         obs::arg_int("solves", v.solves ? 1 : 0)}));
  return v;
}

}  // namespace sesp
