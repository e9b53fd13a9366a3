#include "adversary/exhaustive.hpp"

#include <cstdio>
#include <cstdlib>

#include "exec/jobs.hpp"
#include "exec/thread_pool.hpp"
#include "model/trace_io.hpp"
#include "mpm/mpm_simulator.hpp"
#include "obs/observer.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"
#include "session/verifier.hpp"

namespace sesp {

namespace {

// Scheduler / delay strategy driven by a shared choice cursor. Each call
// consumes one decision: an index into the option set, read from the
// explicit prefix or defaulting to 0 past its end. The total number of
// consumed decisions is recorded so the enumerator knows which positions
// can branch.
class ChoiceCursor {
 public:
  ChoiceCursor(const std::vector<std::int32_t>& prefix,
               std::vector<std::int32_t>& consumed_options)
      : prefix_(prefix), consumed_options_(consumed_options) {}

  // Returns the decision at the cursor, recording how many options the
  // decision point offers.
  std::size_t next(std::size_t num_options) {
    const std::size_t position = consumed_options_.size();
    consumed_options_.push_back(static_cast<std::int32_t>(num_options));
    if (position < prefix_.size()) {
      return static_cast<std::size_t>(prefix_[position]) % num_options;
    }
    return 0;
  }

 private:
  const std::vector<std::int32_t>& prefix_;
  std::vector<std::int32_t>& consumed_options_;
};

class ChoiceScheduler final : public StepScheduler {
 public:
  ChoiceScheduler(ChoiceCursor& cursor, const std::vector<Duration>& gaps)
      : cursor_(cursor), gaps_(gaps) {}

  Time next_step_time(ProcessId, std::optional<Time> prev,
                      std::int64_t) override {
    const Time base = prev ? *prev : Time(0);
    return base + gaps_[cursor_.next(gaps_.size())];
  }

 private:
  ChoiceCursor& cursor_;
  const std::vector<Duration>& gaps_;
};

class ChoiceDelay final : public DelayStrategy {
 public:
  ChoiceDelay(ChoiceCursor& cursor, const std::vector<Duration>& delays)
      : cursor_(cursor), delays_(delays) {}

  Duration delay(ProcessId, ProcessId, const Time&, MsgId) override {
    return delays_[cursor_.next(delays_.size())];
  }

 private:
  ChoiceCursor& cursor_;
  const std::vector<Duration>& delays_;
};

// Odometer increment over the consumed positions: bumps the last consumed
// position; on overflow resets it and carries left, never into the first
// `fixed` positions (the enumeration stays inside the subtree whose leading
// decisions are pinned). Returns false when that (sub)tree is exhausted.
bool advance(std::vector<std::int32_t>& prefix,
             const std::vector<std::int32_t>& consumed_options,
             std::size_t fixed) {
  prefix.resize(consumed_options.size(), 0);
  std::size_t at = consumed_options.size();
  while (at-- > fixed) {
    if (prefix[at] + 1 <
        consumed_options[at]) {
      ++prefix[at];
      prefix.resize(at + 1);
      return true;
    }
  }
  return false;
}

// Decision strings are canonical without trailing zeros: the cursor treats
// positions past the prefix end as 0, so [1] and [1,0] name the same
// schedule. Serial and subtree enumeration produce different spellings of
// the same winner; trimming makes worst_choices identical for any job
// count.
void canonicalize(std::vector<std::int32_t>& choices) {
  while (!choices.empty() && choices.back() == 0) choices.pop_back();
}

// The serial enumeration core, restricted to the subtree whose first
// `fixed` decisions are pinned by `start` and budgeted to max_runs runs.
// The full serial enumeration is the fixed=0, empty-start instance; the
// parallel path runs one instance per subtree.
ExhaustiveResult explore_subtree(const ProblemSpec& spec,
                                 const TimingConstraints& constraints,
                                 const MpmAlgorithmFactory& factory,
                                 const std::vector<Duration>& gap_choices,
                                 const std::vector<Duration>& delay_choices,
                                 std::vector<std::int32_t> prefix,
                                 std::size_t fixed, std::int64_t max_runs,
                                 obs::Observer* o) {
  ExhaustiveResult result;
  std::vector<std::int32_t> consumed;
  while (result.runs < max_runs) {
    if (o && o->exhaustive_runs) o->exhaustive_runs->inc();
    consumed.clear();
    ChoiceCursor cursor(prefix, consumed);
    ChoiceScheduler scheduler(cursor, gap_choices);
    ChoiceDelay delays(cursor, delay_choices);

    MpmSimulator sim(spec, constraints, factory, scheduler, delays, nullptr,
                     o);
    const MpmRunResult run = sim.run();
    const Verdict verdict = verify(run.trace, spec, constraints, o);
    ++result.runs;

    if (!verdict.admissible || !verdict.solves || run.hit_limit) {
      result.all_admissible = result.all_admissible && verdict.admissible;
      result.all_solved = false;
      if (result.first_failure.empty()) {
        result.first_failure =
            !verdict.admissible
                ? "inadmissible: " + verdict.admissibility_violation
                : (run.hit_limit
                       ? "hit run limit"
                       : "sessions=" + std::to_string(verdict.sessions));
      }
    }
    if (result.runs == 1 || verdict.sessions < result.min_sessions)
      result.min_sessions = verdict.sessions;
    if (verdict.termination_time &&
        result.max_termination < *verdict.termination_time) {
      result.max_termination = *verdict.termination_time;
      result.worst_choices = prefix;
    }

    if (!advance(prefix, consumed, fixed)) {
      result.complete = true;
      break;
    }
  }
  canonicalize(result.worst_choices);
  return result;
}

// Journal codec for one subtree's aggregate (docs/robustness.md): every
// field the serial-order accounting consumes, exactly — the budgeted walk
// resumes from checkpointed subtrees byte-identically.
std::string encode_exhaustive(const ExhaustiveResult& r) {
  recovery::PayloadWriter w;
  w.put_bool("complete", r.complete);
  w.put_int("runs", r.runs);
  w.put_bool("all_solved", r.all_solved);
  w.put_bool("all_admissible", r.all_admissible);
  w.put_int("min_sessions", r.min_sessions);
  w.put("max_termination", ratio_to_text(r.max_termination));
  std::string choices;
  for (std::size_t i = 0; i < r.worst_choices.size(); ++i) {
    if (i) choices += ',';
    choices += std::to_string(r.worst_choices[i]);
  }
  w.put("worst_choices", choices);
  w.put("first_failure", r.first_failure);
  return w.str();
}

ExhaustiveResult decode_exhaustive(const std::string& payload) {
  ExhaustiveResult r;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    // One budget unit spent on a subtree that never produced an aggregate:
    // visible to the fold (runs > 0) and named in the report.
    r.runs = 1;
    r.all_solved = false;
    r.first_failure = failure->to_string();
    return r;
  }
  const recovery::PayloadReader reader(payload);
  r.complete = reader.get_bool("complete", false);
  r.runs = reader.get_int("runs", 0);
  r.all_solved = reader.get_bool("all_solved", true);
  r.all_admissible = reader.get_bool("all_admissible", true);
  r.min_sessions = reader.get_int("min_sessions", 0);
  if (const auto t = ratio_from_text(reader.get("max_termination")))
    r.max_termination = *t;
  const std::string choices = reader.get("worst_choices");
  for (std::size_t at = 0; at < choices.size();) {
    std::size_t end = choices.find(',', at);
    if (end == std::string::npos) end = choices.size();
    r.worst_choices.push_back(
        static_cast<std::int32_t>(std::atoi(choices.substr(at, end - at).c_str())));
    at = end + 1;
  }
  r.first_failure = reader.get("first_failure");
  return r;
}

// Appends a (whole) subtree result to the serial-order accumulator.
void fold_subtree(ExhaustiveResult& acc, const ExhaustiveResult& sub) {
  if (sub.runs == 0) return;
  acc.all_admissible = acc.all_admissible && sub.all_admissible;
  acc.all_solved = acc.all_solved && sub.all_solved;
  if (acc.first_failure.empty()) acc.first_failure = sub.first_failure;
  if (acc.runs == 0 || sub.min_sessions < acc.min_sessions)
    acc.min_sessions = sub.min_sessions;
  // Strict <: on ties the earlier subtree's winner stands, exactly like the
  // serial loop's strict update.
  if (acc.max_termination < sub.max_termination) {
    acc.max_termination = sub.max_termination;
    acc.worst_choices = sub.worst_choices;
  }
  acc.runs += sub.runs;
}

}  // namespace

ExhaustiveResult explore_mpm(const ProblemSpec& spec,
                             const TimingConstraints& constraints,
                             const MpmAlgorithmFactory& factory,
                             const std::vector<Duration>& gap_choices,
                             const std::vector<Duration>& delay_choices,
                             std::int64_t max_runs, const RunContext& ctx) {
  if (gap_choices.empty() || delay_choices.empty()) {
    std::fprintf(stderr, "explore_mpm fatal: empty choice sets\n");
    std::abort();
  }

  const RunContext resolved = ctx.resolve();
  obs::Observer* const parent = resolved.observer;
  recovery::Supervisor* const sup = resolved.supervisor;
  obs::Span span(parent ? parent->trace : nullptr, "adversary.explore_mpm",
                 "adversary");

  // The first n decisions of every run are the initial gap choices (one per
  // process, consumed unconditionally before the event loop), so the first
  // K = min(2, n) positions always branch over the full gap set: pinning
  // them partitions the schedule tree into B = |gaps|^K independent
  // subtrees. Each subtree is explored speculatively with the full budget;
  // the serial-order walk below then reconstructs the exact serial result —
  // bit-identical aggregates for every job count.
  const std::size_t gaps = gap_choices.size();
  const std::size_t fan_out =
      spec.n >= 1 ? static_cast<std::size_t>(spec.n < 2 ? spec.n : 2) : 0;
  std::size_t subtrees = 1;
  for (std::size_t i = 0; i < fan_out; ++i) subtrees *= gaps;

  ExhaustiveResult result;
  // A supervised walk always takes the subtree decomposition (any job
  // count): subtrees are the checkpoint granularity, and the decomposition
  // is already proven bit-identical to the serial enumeration.
  const bool decompose =
      subtrees > 1 && max_runs >= 1 &&
      (sup != nullptr ||
       (exec::default_jobs() > 1 && !exec::inside_pool_worker()));
  if (!decompose) {
    if (sup != nullptr) {
      recovery::supervised_sweep(
          resolved, "explore_mpm_serial", 1,
          [&](std::size_t, obs::Observer* o) {
            return encode_exhaustive(
                explore_subtree(spec, constraints, factory, gap_choices,
                                delay_choices, {}, 0, max_runs, o));
          },
          [&](std::size_t, const std::string& payload) {
            result = decode_exhaustive(payload);
          });
    } else {
      result = explore_subtree(spec, constraints, factory, gap_choices,
                               delay_choices, {}, 0, max_runs, parent);
    }
  } else {
    auto digits_of = [&](std::size_t b) {
      std::vector<std::int32_t> digits(fan_out, 0);
      for (std::size_t at = fan_out; at-- > 0;) {
        digits[at] = static_cast<std::int32_t>(b % gaps);
        b /= gaps;
      }
      return digits;
    };

    std::vector<ExhaustiveResult> subs(subtrees);
    recovery::supervised_sweep(
        resolved, "explore_mpm", subtrees,
        [&](std::size_t b, obs::Observer* o) {
          return encode_exhaustive(explore_subtree(
              spec, constraints, factory, gap_choices, delay_choices,
              digits_of(b), fan_out, max_runs, o));
        },
        [&](std::size_t b, const std::string& payload) {
          subs[b] = decode_exhaustive(payload);
        });

    // A drained interrupt leaves subtrees unexplored; return the partial
    // (complete=false, runs=0) aggregate — the tools never print it.
    if (resolved.interrupted()) return result;

    // Serial-order accounting: spend the budget subtree by subtree. A
    // subtree the budget cuts into is re-run serially with exactly the
    // remaining budget so the truncation point (and with it every
    // aggregate) matches the serial enumeration run for run.
    std::int64_t remaining = max_runs;
    bool exhausted_all = true;
    for (std::size_t b = 0; b < subtrees; ++b) {
      if (remaining <= 0) {
        exhausted_all = false;
        continue;
      }
      if (subs[b].runs <= remaining) {
        fold_subtree(result, subs[b]);
        remaining -= subs[b].runs;
        if (!subs[b].complete) exhausted_all = false;
      } else {
        const ExhaustiveResult partial = explore_subtree(
            spec, constraints, factory, gap_choices, delay_choices,
            digits_of(b), fan_out, remaining, parent);
        fold_subtree(result, partial);
        remaining = 0;
        exhausted_all = false;
      }
    }
    result.complete = exhausted_all;
  }

  if (parent && parent->trace)
    span.set_args(obs::args_object(
        {obs::arg_int("runs", result.runs),
         obs::arg_int("complete", result.complete ? 1 : 0),
         obs::arg_int("min_sessions", result.min_sessions)}));
  return result;
}

}  // namespace sesp
