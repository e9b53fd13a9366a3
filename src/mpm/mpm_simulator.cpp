#include "mpm/mpm_simulator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "mpm/message.hpp"

namespace sesp {

MpmSimulator::MpmSimulator(const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const MpmAlgorithmFactory& factory,
                           StepScheduler& scheduler, DelayStrategy& delays,
                           FaultInjector* faults, obs::Observer* observer)
    : spec_(spec),
      constraints_(constraints),
      factory_(factory),
      scheduler_(scheduler),
      delays_(delays),
      faults_(faults),
      observer_(observer) {}

MpmRunResult MpmSimulator::run(const RunLimits& limits) {
  const std::int32_t n = spec_.n;
  sim::EventKernel<MpmRunResult> k(
      "mpm.run",
      [&] {
        return obs::args_object(
            {obs::arg_int("n", n), obs::arg_int("s", spec_.s)});
      },
      observer_, limits, scheduler_, faults_, &delays_);
  MpmRunResult result{
      TimedComputation(Substrate::kMessagePassing, std::max(n, 0),
                       std::max(n, 0)),
      false, false, 0, 0, std::nullopt, {}};
  if (n <= 0)
    return k.reject(std::move(result), "MPM needs n >= 1 port processes, got " +
                                           std::to_string(n));
  TimedComputation& trace = result.trace;
  // Pre-size the logs to the step budget: a budget-bounded run otherwise
  // reallocates the step log ~18 times, and the final doublings memcpy tens
  // of megabytes (docs/performance.md "Data layout"). Capped so unbounded
  // budgets stay lazy; untouched reserved pages cost only address space.
  if (limits.max_steps > 0) {
    const auto budget = static_cast<std::size_t>(
        std::min<std::int64_t>(limits.max_steps, std::int64_t{1} << 17));
    trace.reserve(3 * budget, 3 * budget);
  }

  std::vector<std::unique_ptr<MpmAlgorithm>> algs;
  algs.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    algs.push_back(factory_.create(p, spec_, constraints_));
  // Per-step receive scratch, reused across the whole run so the steady
  // state allocates nothing.
  std::vector<MpmMessage> received;

  // A step drains buf_p, runs the algorithm and broadcasts. buf_p holds
  // message ids only: the payloads are rebuilt from the trace's own
  // MessageRecords (the same cache line a delivery writes deliver_step
  // into), so the MPM keeps no separate in-transit structure.
  const auto step = [&](ProcessId p, const Time& t) {
    std::vector<MsgId>& buf = k.pending(p);
    received.clear();
    for (const MsgId id : buf) {
      const MessageRecord& m = trace.messages()[static_cast<std::size_t>(id)];
      received.push_back(MpmMessage{m.sender, m.session, m.steps, m.done});
    }
    const MpmStepResult action = algs[static_cast<std::size_t>(p)]->on_step(
        std::span<const MpmMessage>(received.data(), received.size()));

    StepRecord& st = trace.append_slot();
    st.kind = StepKind::kCompute;
    st.process = p;
    st.time = t;
    st.port = p;  // in the MPM every compute step of p involves buf_p
    st.idle_after = action.idle;
    const std::size_t step_index = trace.steps().size() - 1;
    for (const MsgId id : buf)
      trace.mutable_messages()[static_cast<std::size_t>(id)].receive_step =
          step_index;
    buf.clear();

    if (action.broadcast)
      for (ProcessId q = 0; q < n; ++q)
        k.send(p, q, action.message, t, [](MsgId) {});
    return action.idle;
  };
  k.run(result, step, [](MsgId, const Time&) { return true; }, [&] {
    return obs::args_object(
        {obs::arg_int("n", n), obs::arg_int("s", spec_.s),
         obs::arg_int("steps", result.compute_steps),
         obs::arg_int("messages", result.messages_sent),
         obs::arg_int("completed", result.completed ? 1 : 0)});
  });
  return result;
}

}  // namespace sesp
