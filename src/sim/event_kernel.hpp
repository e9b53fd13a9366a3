#pragma once

// The event kernel shared by MpmSimulator, SmmSimulator and P2pSimulator
// (docs/performance.md "Event kernel"). The paper has one model of a timed
// computation (§2): compute and delivery steps at exact times, admissible
// under the timing model. The substrates differ only in what one step does,
// so each simulator passes its step semantics in as inlined callables and
// the kernel owns everything else:
//
//   * the `<substrate>.run` span, the `runs` counter, invalid-spec rejection;
//   * the calendar queue and its lane-run drive loop: a run of compute
//     events, then a run of deliveries, until no port process is active;
//   * step scheduling with fault perturbation and the non-monotonic check;
//   * the watchdogs: queue-depth gauge, step/time budgets, no-progress;
//   * crash-stop, the send path with its drop/delay/duplicate actions, and
//     the per-process pending message lists (the paper's buf_p);
//   * the end of the run: completion, error and watchdog-margin
//     observation, and the span's closing args.
//
// The pop order — and with it every observable: trace bytes, fault-hook RNG
// consumption, watchdog trip points, gauge values — is bit-identical to the
// old (time, kind, seq) comparison heap, because delivery events never
// spawn events and a compute step only ever schedules at or after its own
// time. sim_core_equiv_test and the golden corpus pin this.

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "adversary/schedulers.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "obs/observer.hpp"
#include "sim/calendar_queue.hpp"

namespace sesp {

// Budgets of one simulator run. A run that exceeds either limit before all
// port processes idle stops with a flagged SimError; this guards against
// broken non-terminating algorithms.
struct RunLimits {
  std::int64_t max_steps = 2'000'000;
  Time max_time = Time(1'000'000'000);
  // No-progress watchdog: maximum consecutive events at one model time
  // before the run is declared livelocked (zero-gap schedules).
  std::int64_t max_stagnant_events = 100'000;
};

namespace sim {

// Delivery handler of a substrate without messages (the SMM): such runs
// push no deliveries, and the deliver lane compiles away.
struct NoDeliveries {
  bool operator()(MsgId, const Time&) const noexcept { return false; }
};

// `Result` is the substrate's run result. It has the fields `trace`,
// `completed`, `hit_limit`, `compute_steps`, `error` and `crashed`, plus
// `messages_sent` when the substrate sends messages.
template <class Result>
class EventKernel {
 public:
  // Opens the `span_name` span and counts the run. `span_args()` renders
  // the span's opening args; it is called only when tracing. `delays` is
  // needed only by substrates that send.
  template <class SpanArgs>
  EventKernel(const char* span_name, const SpanArgs& span_args,
              obs::Observer* observer, const RunLimits& limits,
              StepScheduler& scheduler, FaultInjector* faults,
              DelayStrategy* delays = nullptr)
      : o_(obs::resolve(observer)),
        span_(o_ ? o_->trace : nullptr, span_name, "sim",
              o_ && o_->trace ? span_args() : std::string()),
        limits_(limits),
        scheduler_(scheduler),
        faults_(faults),
        delays_(delays),
        prof_(o_ ? o_->profiler : nullptr),
        g_queue_depth_(o_ ? o_->event_queue_depth : nullptr),
        g_pending_depth_(o_ ? o_->pending_depth : nullptr),
        c_delivered_(o_ ? o_->messages_delivered : nullptr),
        c_steps_(o_ ? o_->steps : nullptr),
        c_sent_(o_ ? o_->messages_sent : nullptr),
        c_dropped_(o_ ? o_->messages_dropped : nullptr) {
    if (o_ && o_->runs) o_->runs->inc();
  }

  obs::Observer* observer() const noexcept { return o_; }

  // Ends a run whose spec was rejected before any step.
  Result reject(Result result, std::string detail) {
    SimError err;
    err.code = SimErrorCode::kInvalidSpec;
    err.detail = std::move(detail);
    result.error = std::move(err);
    obs::observe_error(o_, *result.error);
    return result;
  }

  // Runs `result` to its end. Every process of its trace is scheduled from
  // t = 0; the trace's num_ports() port processes come first, and the run
  // completes once each of them has idled or crashed.
  //
  //   step(p, t)    performs p's compute step at t: appends its StepRecord
  //                 (and sends through send()); returns whether p is idle.
  //   accept(id, t) vets a delivery before it is recorded; false ends the
  //                 run, with the error set through fail().
  //   span_args()   renders the span's closing args (only when tracing).
  //
  // At equal times compute steps run before deliveries: a message delivered
  // "at" a step time is only seen at the recipient's next step, the worst
  // admissible interleaving.
  template <class Step, class Accept, class SpanArgs>
  void run(Result& result, Step&& step, Accept&& accept,
           const SpanArgs& span_args) {
    constexpr bool kMessages =
        !std::is_same_v<std::decay_t<Accept>, NoDeliveries>;
    using Lane = CalendarQueue::Lane;
    r_ = &result;
    TimedComputation& trace = result.trace;
    const std::int32_t ports = trace.num_ports();
    if (kMessages) pending_.resize(static_cast<std::size_t>(ports));
    std::vector<std::int64_t> step_count(
        static_cast<std::size_t>(trace.num_processes()), 0);
    std::int32_t active = ports;  // ports neither idle nor crashed

    for (ProcessId p = 0; p < trace.num_processes(); ++p)
      if (!schedule_step(p, std::nullopt, 0)) {
        obs::observe_error(o_, *result.error);
        return;
      }

    bool stop = false;
    while (!stop && !queue_.empty() && active > 0) {
      pop_timer_.begin();
      const bool deliver_lane =
          kMessages && queue_.peek_lane() == Lane::kDeliver;
      pop_timer_.end();

      if (deliver_lane) {
        deliver_timer_.begin();
        do {
          queue_.pop(ev_);
          if (watchdogs() || !accept(ev_.message, ev_.time)) {
            stop = true;
            break;
          }
          StepRecord& st = trace.append_slot();
          st.kind = StepKind::kDeliver;
          st.process = kNetworkProcess;
          st.time = ev_.time;
          st.delivered = ev_.message;
          MessageRecord& rec =
              trace.mutable_messages()[static_cast<std::size_t>(ev_.message)];
          rec.deliver_step = trace.steps().size() - 1;
          std::vector<MsgId>& buf = pending(rec.recipient);
          buf.push_back(ev_.message);
          if (c_delivered_) {
            c_delivered_->inc();
            g_pending_depth_->set(static_cast<std::int64_t>(buf.size()));
          }
        } while (!queue_.empty() && queue_.peek_lane() == Lane::kDeliver);
        deliver_timer_.end();
        continue;
      }

      step_timer_.begin();
      do {
        queue_.pop(ev_);
        if (watchdogs()) {
          stop = true;
          break;
        }
        const ProcessId p = ev_.process;
        const auto pi = static_cast<std::size_t>(p);

        // Crash-stop: the process halts in place of this step and takes no
        // further steps, so a crashed port never idles. Messages already in
        // flight to it still deliver into its (never drained) buffer.
        if (faults_ && faults_->crash_now(p, step_count[pi], ev_.time)) {
          obs::observe_fault(o_, "crash", p, ev_.time);
          result.crashed.push_back(p);
          if (p < ports) --active;
          continue;
        }

        const bool idle = step(p, ev_.time);
        ++result.compute_steps;
        if (c_steps_) c_steps_->inc();
        ++step_count[pi];
        if (idle) {
          --active;
        } else if (!schedule_step(p, ev_.time, step_count[pi])) {
          stop = true;
          break;
        }
      } while (active > 0 && !queue_.empty() &&
               (!kMessages || queue_.peek_lane() == Lane::kCompute));
      step_timer_.end();
    }

    result.completed = active == 0 && !result.error;
    if (result.error) obs::observe_error(o_, *result.error);
    obs::observe_watchdog_margins(o_, result.compute_steps, limits_.max_steps,
                                  last_event_time_, limits_.max_time);
    if (o_ && o_->trace) span_.set_args(span_args());
  }

  // The paper's buf_p: ids of the messages delivered to p and not yet
  // received by one of its steps, in delivery order. A step clears it.
  std::vector<MsgId>& pending(ProcessId p) {
    return pending_[static_cast<std::size_t>(p)];
  }

  // Sends `m` from p to q at time t, as a message of the step recorded
  // last: appends the message record, then applies the fault plan's drop,
  // extra-delay and duplicate actions. `stored(id)` runs for each copy that
  // enters the network, right before it is queued.
  template <class Payload, class Stored>
  void send(ProcessId p, ProcessId q, const Payload& m, const Time& t,
            Stored&& stored) {
    TimedComputation& trace = r_->trace;
    MsgId id;
    {
      MessageRecord& rec = trace.append_message_slot();
      rec.sender = p;
      rec.recipient = q;
      rec.send_step = trace.steps().size() - 1;
      rec.session = m.session;
      rec.steps = m.steps;
      rec.done = m.done;
      id = rec.id;
    }
    ++r_->messages_sent;
    if (c_sent_) c_sent_->inc();

    const MessageAction act =
        faults_ ? faults_->on_send(id, p, q, t) : MessageAction{};
    if (act.drop) {  // lost: sent but never delivered
      if (c_dropped_) c_dropped_->inc();
      obs::observe_fault(o_, "drop", p, t);
      return;
    }
    if (act.extra_delay.is_positive()) obs::observe_fault(o_, "delay", p, t);

    const Duration delay = delays_->delay(p, q, t, id) + act.extra_delay;
    stored(id);
    queue_.push_deliver(t + delay, q, id);

    if (act.duplicate) {
      // The duplicate is a distinct trace message with the same payload,
      // delivered after an extra delay. append_message takes its record by
      // value, so the source reference cannot dangle.
      obs::observe_fault(o_, "duplicate", p, t);
      const MsgId dup =
          trace.append_message(trace.messages()[static_cast<std::size_t>(id)]);
      stored(dup);
      queue_.push_deliver(t + delay + act.extra_delay, q, dup);
      ++r_->messages_sent;
      if (c_sent_) c_sent_->inc();
    }
  }

  // Sets the run's error, located at the next step index and time t; the
  // caller may add further location fields to the returned error.
  SimError& fail(SimErrorCode code, std::string detail, const Time& t) {
    SimError& err = r_->error.emplace();
    err.code = code;
    err.detail = std::move(detail);
    err.step_index = static_cast<std::int64_t>(r_->trace.steps().size());
    err.time = t;
    return err;
  }

 private:
  // Schedules p's next compute step, applying any injected timing violation
  // and rejecting schedules that run backwards in time.
  bool schedule_step(ProcessId p, std::optional<Time> prev,
                     std::int64_t index) {
    sched_timer_.begin();
    Time t = scheduler_.next_step_time(p, prev, index);
    const Time floor = prev.value_or(Time(0));
    if (faults_) {
      const Time scheduled = t;
      t = faults_->perturb_step_time(p, index, floor, t);
      if (t != scheduled) obs::observe_fault(o_, "timing", p, t);
    }
    const bool ok = !(t < floor);
    if (ok) {
      queue_.push_compute(t, p);
    } else {
      SimError& err = fail(SimErrorCode::kNonMonotonicSchedule,
                           "scheduled t=" + t.to_string() + " before t=" +
                               floor.to_string(),
                           floor);
      err.process = p;
    }
    sched_timer_.end();
    return ok;
  }

  // Per-event bookkeeping shared by both lanes, in order: the depth gauge
  // (pre-pop queue size), the budget watchdogs, the no-progress watchdog.
  // True means a watchdog tripped.
  bool watchdogs() {
    if (g_queue_depth_)
      g_queue_depth_->set(static_cast<std::int64_t>(queue_.size()) + 1);
    const bool steps = r_->compute_steps >= limits_.max_steps;
    if (steps || limits_.max_time < ev_.time) {
      r_->hit_limit = true;
      fail(steps ? SimErrorCode::kStepLimitExceeded
                 : SimErrorCode::kTimeLimitExceeded,
           steps ? "compute-step budget " + std::to_string(limits_.max_steps) +
                       " exhausted"
                 : "model-time budget " + limits_.max_time.to_string() +
                       " exhausted",
           ev_.time);
      return true;
    }
    if (ev_.time == last_event_time_) {
      if (++stagnant_events_ > limits_.max_stagnant_events) {
        r_->hit_limit = true;
        fail(SimErrorCode::kNoProgress,
             "time pinned at t=" + ev_.time.to_string() + " for " +
                 std::to_string(stagnant_events_) + " events",
             ev_.time);
        return true;
      }
    } else {
      last_event_time_ = ev_.time;
      stagnant_events_ = 0;
    }
    return false;
  }

  obs::Observer* const o_;
  obs::Span span_;
  const RunLimits& limits_;
  StepScheduler& scheduler_;
  FaultInjector* const faults_;
  DelayStrategy* const delays_;
  // Observer instruments, resolved once per run.
  obs::Profiler* const prof_;
  obs::Gauge* const g_queue_depth_;
  obs::Gauge* const g_pending_depth_;
  obs::Counter* const c_delivered_;
  obs::Counter* const c_steps_;
  obs::Counter* const c_sent_;
  obs::Counter* const c_dropped_;

  CalendarQueue queue_;
  obs::SampledPhaseTimer pop_timer_{prof_, obs::ProfilePhase::kEventQueuePop};
  obs::SampledPhaseTimer deliver_timer_{prof_, obs::ProfilePhase::kDeliver};
  obs::SampledPhaseTimer step_timer_{prof_, obs::ProfilePhase::kProcessStep};
  obs::SampledPhaseTimer sched_timer_{prof_, obs::ProfilePhase::kSchedule};
  std::vector<std::vector<MsgId>> pending_;
  Result* r_ = nullptr;
  CalendarQueue::Popped ev_;
  Time last_event_time_ = Time(0);
  std::int64_t stagnant_events_ = 0;
};

}  // namespace sim
}  // namespace sesp
