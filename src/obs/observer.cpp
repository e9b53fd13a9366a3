#include "obs/observer.hpp"

namespace sesp::obs {

namespace {
Observer* g_default_observer = nullptr;

// Short machine tag per error code for trace event names
// ("error.step_limit" etc.).
const char* error_tag(SimErrorCode code) {
  switch (code) {
    case SimErrorCode::kInvalidSpec: return "invalid_spec";
    case SimErrorCode::kUnknownMessage: return "unknown_message";
    case SimErrorCode::kStepLimitExceeded: return "step_limit";
    case SimErrorCode::kTimeLimitExceeded: return "time_limit";
    case SimErrorCode::kNoProgress: return "no_progress";
    case SimErrorCode::kNonMonotonicSchedule: return "non_monotonic";
  }
  return "unknown";
}
}  // namespace

Observer::Observer(MetricsRegistry* m, TraceSink* t) : metrics(m), trace(t) {
  if (!metrics) return;
  runs = &metrics->counter("sim.runs");
  steps = &metrics->counter("sim.steps");
  messages_sent = &metrics->counter("sim.messages.sent");
  messages_delivered = &metrics->counter("sim.messages.delivered");
  messages_dropped = &metrics->counter("sim.messages.dropped");
  shared_reads = &metrics->counter("sim.shared.reads");
  shared_writes = &metrics->counter("sim.shared.writes");
  errors = &metrics->counter("sim.errors");
  faults_injected = &metrics->counter("faults.injected");
  sessions = &metrics->counter("verify.sessions");
  verified_runs = &metrics->counter("verify.runs");
  retimer_iterations = &metrics->counter("adversary.retimer.iterations");
  exhaustive_runs = &metrics->counter("adversary.exhaustive.runs");
  pending_depth = &metrics->gauge("sim.pending.depth");
  event_queue_depth = &metrics->gauge("sim.event_queue.depth");
  step_margin = &metrics->histogram("sim.watchdog.step_margin");
  time_margin = &metrics->histogram("sim.watchdog.time_margin");
  termination_time = &metrics->histogram("verify.termination_time");
}

ObservationShard::ObservationShard(Observer* parent) : parent_(parent) {
  if (!parent_) return;
  if (parent_->metrics) metrics_.emplace();
  if (parent_->trace) trace_.emplace();
  if (parent_->profiler) profiler_.emplace();
  observer_ = Observer(metrics_ ? &*metrics_ : nullptr,
                       trace_ ? &*trace_ : nullptr);
  observer_.profiler = profiler_ ? &*profiler_ : nullptr;
}

void ObservationShard::merge_into_parent() {
  if (!parent_) return;
  if (metrics_ && parent_->metrics) parent_->metrics->merge_from(*metrics_);
  if (trace_ && parent_->trace) parent_->trace->merge_from(*trace_);
  if (profiler_ && parent_->profiler)
    parent_->profiler->merge_from(*profiler_);
}

Observer* default_observer() noexcept { return g_default_observer; }

Observer* set_default_observer(Observer* observer) noexcept {
  Observer* previous = g_default_observer;
  g_default_observer = observer;
  return previous;
}

void observe_fault(Observer* obs, std::string_view kind, ProcessId process,
                   const Time& time) {
  if (!obs) return;
  if (obs->faults_injected) obs->faults_injected->inc();
  if (obs->trace)
    obs->trace->instant(
        "fault." + std::string(kind), "fault",
        args_object({arg_int("process", process),
                     arg_str("time", time.to_string())}));
}

void observe_error(Observer* obs, const SimError& error) {
  if (!obs) return;
  if (obs->errors) obs->errors->inc();
  if (obs->trace)
    obs->trace->instant(
        "error." + std::string(error_tag(error.code)), "error",
        args_object(
            {arg_str("detail", error.detail),
             arg_int("process", error.process),
             arg_int("step_index", error.step_index),
             error.time ? arg_str("time", error.time->to_string())
                        : std::string()}));
}

void observe_watchdog_margins(Observer* obs, std::int64_t steps_used,
                              std::int64_t max_steps, const Time& end_time,
                              const Time& max_time) {
  if (!obs || !obs->step_margin) return;
  if (max_steps > 0) {
    const std::int64_t left =
        steps_used >= max_steps ? 0 : max_steps - steps_used;
    obs->step_margin->observe(Ratio(left, max_steps));
  }
  if (max_time.is_positive()) {
    const Ratio left =
        max_time < end_time ? Ratio(0) : (max_time - end_time) / max_time;
    obs->time_margin->observe(left);
  }
}

}  // namespace sesp::obs
