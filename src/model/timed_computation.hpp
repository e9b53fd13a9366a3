#pragma once

// A timed computation (Section 2.1): a sequence of steps together with a
// nondecreasing time mapping. This is the central trace object: simulators
// produce it, the session/round counters consume it, the admissibility
// checker validates it, and the lower-bound constructions rewrite it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "model/step_record.hpp"
#include "util/ratio.hpp"

namespace sesp {

// Which communication substrate produced the trace; some checks only apply
// to one of them.
enum class Substrate : std::uint8_t { kSharedMemory, kMessagePassing };

class TimedComputation {
 public:
  TimedComputation(Substrate substrate, std::int32_t num_processes,
                   std::int32_t num_ports);
  TimedComputation(const TimedComputation&) = default;
  TimedComputation& operator=(const TimedComputation&) = default;
  TimedComputation(TimedComputation&&) = default;
  TimedComputation& operator=(TimedComputation&&) = default;
  // Parks large log buffers on this thread's scratch free list for the next
  // trace (see reserve()).
  ~TimedComputation();

  Substrate substrate() const noexcept { return substrate_; }

  // All processes other than N: port processes first (ids 0..num_ports-1),
  // then relay processes in the SMM.
  std::int32_t num_processes() const noexcept { return num_processes_; }
  std::int32_t num_ports() const noexcept { return num_ports_; }

  const std::vector<StepRecord>& steps() const noexcept { return steps_; }
  const std::vector<MessageRecord>& messages() const noexcept {
    return messages_;
  }
  std::vector<MessageRecord>& mutable_messages() noexcept { return messages_; }

  std::size_t append(StepRecord step);
  MsgId append_message(MessageRecord msg);  // assigns and returns the id

  // In-place variants for the simulator hot loops: append a
  // default-initialized record and return a reference for the caller to
  // fill, skipping the build-then-copy of the by-value forms. The reference
  // is invalidated by the next append to the same log (steps and messages
  // are separate logs). append_message_slot() assigns the id.
  StepRecord& append_slot() { return steps_.emplace_back(); }
  MessageRecord& append_message_slot() {
    MessageRecord& m = messages_.emplace_back();
    m.id = static_cast<MsgId>(messages_.size() - 1);
    return m;
  }

  // Pre-sizes the step/message logs (capacity only; a hot-loop hint from
  // simulators that know their step budget, so budget-bounded runs never
  // pay the log's geometric reallocations). Reuses buffers parked by
  // earlier traces on this thread when they are big enough — sweeps build
  // and discard one multi-megabyte trace per run, and recycling the arena
  // keeps its pages mapped instead of re-faulting them in every run
  // (util/scratch.hpp). Capacity is not an observable, so reuse cannot
  // change a recorded byte.
  void reserve(std::size_t steps, std::size_t messages);

  // Time of the last recorded step, or 0 for the empty trace.
  Time end_time() const noexcept;

  // Times of a process's compute steps, in order.
  std::vector<Time> compute_times(ProcessId p) const;

  // Indices of a process's compute steps, in order.
  std::vector<std::size_t> compute_indices(ProcessId p) const;

  // True iff every port process has an idle_after step.
  bool all_ports_idle() const;

  // Time at which the last port process became idle (Section 2.3's running
  // time). nullopt if some port process never idles in this trace.
  std::optional<Time> termination_time() const;

  // Index of the last step before which some port process is still non-idle,
  // i.e. the length of the prefix counted by the round/γ measures. Equals
  // steps().size() when not all ports idle.
  std::size_t active_prefix_length() const;

  // γ: the largest gap between consecutive compute steps of any process
  // (including the gap from time 0 to the first step), over the active
  // prefix. This is the per-computation parameter of Section 2.3 used by the
  // sporadic bounds. nullopt for a trace with no compute steps.
  std::optional<Duration> gamma() const;

  // Structural sanity independent of any timing model: nondecreasing times,
  // idle states absorbing, MPM deliveries referencing sent messages and
  // preceding receipts. Returns an error description or nullopt if valid.
  std::optional<std::string> structural_error() const;

  std::string to_string(std::size_t max_steps = 50) const;

 private:
  Substrate substrate_;
  std::int32_t num_processes_;
  std::int32_t num_ports_;
  std::vector<StepRecord> steps_;
  std::vector<MessageRecord> messages_;
};

}  // namespace sesp
