#include "sim/replay.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "adversary/schedulers.hpp"
#include "adversary/step_schedulers.hpp"
#include "mpm/mpm_simulator.hpp"
#include "smm/smm_simulator.hpp"

namespace sesp {

namespace {

// The recorded compute times of each of the run's `processes` processes,
// indexed by id. The run never asks for any other process, so steps naming
// one are left out, and a trace's own counts and ids size nothing.
ScriptedScheduler scheduler_from(const TimedComputation& trace,
                                 std::int32_t processes,
                                 const Duration& tail_gap) {
  std::vector<std::vector<Time>> script(
      static_cast<std::size_t>(std::max(processes, 0)));
  for (const StepRecord& st : trace.steps())
    if (st.is_compute() && st.process >= 0 && st.process < processes)
      script[static_cast<std::size_t>(st.process)].push_back(st.time);
  return ScriptedScheduler(std::move(script), tail_gap);
}

// Messages never delivered in the recording get pushed past any plausible
// termination so the replay doesn't deliver them either.
constexpr Duration kNever(1'000'000'000);

// Replays each message's recorded delay, indexed by MsgId: as long as the
// runs agree, message ids are assigned in the same order, and a trace's
// message ids are its dense record positions 0..m-1.
class RecordedDelay final : public DelayStrategy {
 public:
  explicit RecordedDelay(const TimedComputation& trace)
      : delays_(trace.messages().size(), kNever) {
    const auto& steps = trace.steps();
    for (const MessageRecord& m : trace.messages()) {
      // Only a delivery that the trace holds, at or after a send that it
      // holds, has a delay to replay; anything else (a crafted trace) replays
      // as never delivered rather than reading past the steps or scheduling
      // into the past.
      if (!m.delivered() || m.deliver_step >= steps.size() ||
          m.send_step >= steps.size())
        continue;
      const Time& sent = steps[m.send_step].time;
      const Time& delivered = steps[m.deliver_step].time;
      if (delivered < sent) continue;
      delays_[static_cast<std::size_t>(m.id)] = delivered - sent;
    }
  }

  Duration delay(ProcessId, ProcessId, const Time&, MsgId id) override {
    return id >= 0 && static_cast<std::size_t>(id) < delays_.size()
               ? delays_[static_cast<std::size_t>(id)]
               : kNever;
  }

 private:
  std::vector<Duration> delays_;
};

std::string describe(const StepRecord& st) { return st.to_string(); }

ReplayReport compare(const TimedComputation& expected,
                     const TimedComputation& actual) {
  ReplayReport report;
  const auto& a = expected.steps();
  const auto& b = actual.steps();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    const bool same = a[i].kind == b[i].kind && a[i].process == b[i].process &&
                      a[i].time == b[i].time && a[i].port == b[i].port &&
                      a[i].var == b[i].var &&
                      a[i].idle_after == b[i].idle_after &&
                      a[i].value_before_digest == b[i].value_before_digest &&
                      a[i].value_after_digest == b[i].value_after_digest;
    if (!same) {
      report.divergence = i;
      std::ostringstream os;
      os << "step " << i << " differs: recorded " << describe(a[i])
         << " vs replayed " << describe(b[i]);
      report.detail = os.str();
      return report;
    }
  }
  if (a.size() != b.size()) {
    report.divergence = common;
    report.detail = "length mismatch: recorded " + std::to_string(a.size()) +
                    " steps, replayed " + std::to_string(b.size());
    return report;
  }
  report.match = true;
  report.divergence = common;
  return report;
}

}  // namespace

ReplayReport replay_smm(const TimedComputation& trace, const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const SmmAlgorithmFactory& factory) {
  ScriptedScheduler scheduler =
      scheduler_from(trace, smm_total_processes(spec.n, spec.b),
                     Duration(1'000'000'000));
  SmmSimulator sim(spec, constraints, factory, scheduler);
  const SmmRunResult run = sim.run();
  return compare(trace, run.trace);
}

ReplayReport replay_mpm(const TimedComputation& trace, const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const MpmAlgorithmFactory& factory) {
  ScriptedScheduler scheduler =
      scheduler_from(trace, spec.n, Duration(1'000'000'000));
  RecordedDelay delays(trace);
  MpmSimulator sim(spec, constraints, factory, scheduler, delays);
  const MpmRunResult run = sim.run();
  return compare(trace, run.trace);
}

}  // namespace sesp
