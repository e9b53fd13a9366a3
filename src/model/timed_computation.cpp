#include "model/timed_computation.hpp"

#include <cstdint>
#include <map>
#include <sstream>

#include "util/scratch.hpp"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace sesp {

namespace {

// Only log buffers past this capacity are worth parking for the next trace
// (docs/performance.md "Per-run scratch"); everything smaller is cheaper to
// let the allocator handle.
constexpr std::size_t kParkMin = std::size_t{1} << 12;

// Ask the kernel to back a large log buffer with huge pages where it can
// (Linux THP runs in madvise-only mode on most hosts, so without the hint
// the multi-megabyte arenas sit on 4K pages and the hot loops pay TLB
// walks — and whether khugepaged happens to promote them is what made
// run-to-run wall times bimodal). Capacity-only, advisory, and invisible
// to every observable. Called once per allocation: a recycled buffer keeps
// its advice.
template <typename T>
void advise_huge(std::vector<T>& v) {
#ifdef __linux__
  const std::size_t bytes = v.capacity() * sizeof(T);
  if (bytes < (std::size_t{4} << 20)) return;
  auto addr = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t end = addr + bytes;
  const std::uintptr_t first = (addr + 0xFFF) & ~std::uintptr_t{0xFFF};
  if (end > first)
    madvise(reinterpret_cast<void*>(first), end - first, MADV_HUGEPAGE);
#endif
}

template <typename T>
void reserve_log(std::vector<T>& log, std::size_t want) {
  if (log.capacity() >= want) return;
  if (log.empty() && take_buffer(log, want)) return;
  log.reserve(want);
  advise_huge(log);
}

}  // namespace

TimedComputation::TimedComputation(Substrate substrate,
                                   std::int32_t num_processes,
                                   std::int32_t num_ports)
    : substrate_(substrate),
      num_processes_(num_processes),
      num_ports_(num_ports) {}

TimedComputation::~TimedComputation() {
  park_buffer(steps_, kParkMin);
  park_buffer(messages_, kParkMin);
}

void TimedComputation::reserve(std::size_t steps, std::size_t messages) {
  reserve_log(steps_, steps);
  reserve_log(messages_, messages);
}

std::size_t TimedComputation::append(StepRecord step) {
  steps_.push_back(std::move(step));
  return steps_.size() - 1;
}

MsgId TimedComputation::append_message(MessageRecord msg) {
  msg.id = static_cast<MsgId>(messages_.size());
  messages_.push_back(msg);
  return msg.id;
}

Time TimedComputation::end_time() const noexcept {
  return steps_.empty() ? Time(0) : steps_.back().time;
}

std::vector<Time> TimedComputation::compute_times(ProcessId p) const {
  std::vector<Time> times;
  for (const StepRecord& st : steps_)
    if (st.is_compute() && st.process == p) times.push_back(st.time);
  return times;
}

std::vector<std::size_t> TimedComputation::compute_indices(ProcessId p) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < steps_.size(); ++i)
    if (steps_[i].is_compute() && steps_[i].process == p) idx.push_back(i);
  return idx;
}

bool TimedComputation::all_ports_idle() const {
  std::vector<bool> idle(static_cast<std::size_t>(num_ports_), false);
  std::int32_t remaining = num_ports_;
  for (const StepRecord& st : steps_) {
    if (st.is_compute() && st.idle_after && st.process < num_ports_ &&
        !idle[static_cast<std::size_t>(st.process)]) {
      idle[static_cast<std::size_t>(st.process)] = true;
      if (--remaining == 0) return true;
    }
  }
  return false;
}

std::optional<Time> TimedComputation::termination_time() const {
  std::vector<bool> idle(static_cast<std::size_t>(num_ports_), false);
  std::int32_t remaining = num_ports_;
  for (const StepRecord& st : steps_) {
    if (st.is_compute() && st.idle_after && st.process < num_ports_ &&
        !idle[static_cast<std::size_t>(st.process)]) {
      idle[static_cast<std::size_t>(st.process)] = true;
      if (--remaining == 0) return st.time;
    }
  }
  return std::nullopt;
}

std::size_t TimedComputation::active_prefix_length() const {
  std::vector<bool> idle(static_cast<std::size_t>(num_ports_), false);
  std::int32_t remaining = num_ports_;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const StepRecord& st = steps_[i];
    if (st.is_compute() && st.idle_after && st.process < num_ports_ &&
        !idle[static_cast<std::size_t>(st.process)]) {
      idle[static_cast<std::size_t>(st.process)] = true;
      if (--remaining == 0) return i + 1;
    }
  }
  return steps_.size();
}

std::optional<Duration> TimedComputation::gamma() const {
  const std::size_t prefix = active_prefix_length();
  // Flat per-process predecessor times; "no step yet" and the virtual
  // time-0 predecessor coincide, so zero-initialization is the map's
  // semantics. Out-of-range ids (possible only in hand-built traces) keep
  // the old map behavior via the fallback.
  std::vector<Time> last(static_cast<std::size_t>(
                             num_processes_ > 0 ? num_processes_ : 0),
                         Time(0));
  std::map<ProcessId, Time> stray;
  std::optional<Duration> best;
  for (std::size_t i = 0; i < prefix; ++i) {
    const StepRecord& st = steps_[i];
    if (!st.is_compute()) continue;
    Time* slot;
    if (st.process >= 0 && st.process < num_processes_) {
      slot = &last[static_cast<std::size_t>(st.process)];
    } else {
      slot = &stray.try_emplace(st.process, Time(0)).first->second;
    }
    const Duration gap = st.time - *slot;
    if (!best || *best < gap) best = gap;
    *slot = st.time;
  }
  return best;
}

std::optional<std::string> TimedComputation::structural_error() const {
  // Times nondecreasing.
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    if (steps_[i].time < steps_[i - 1].time)
      return "time decreases at step " + std::to_string(i);
  }
  // Idle states absorbing: once a process records idle_after, all its later
  // compute steps must also be idle.
  std::vector<bool> idle(static_cast<std::size_t>(num_processes_), false);
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const StepRecord& st = steps_[i];
    if (!st.is_compute()) continue;
    if (st.process < 0 || st.process >= num_processes_)
      return "bad process id at step " + std::to_string(i);
    const auto p = static_cast<std::size_t>(st.process);
    if (idle[p] && !st.idle_after)
      return "process " + std::to_string(st.process) +
             " leaves idle state at step " + std::to_string(i);
    if (st.idle_after) idle[p] = true;
  }
  // Message plumbing (MPM).
  for (const MessageRecord& m : messages_) {
    if (m.send_step >= steps_.size())
      return "message " + std::to_string(m.id) + " has bad send step";
    if (m.delivered()) {
      if (m.deliver_step >= steps_.size() || m.deliver_step < m.send_step)
        return "message " + std::to_string(m.id) + " delivered before sent";
      const StepRecord& d = steps_[m.deliver_step];
      if (d.kind != StepKind::kDeliver || d.delivered != m.id)
        return "message " + std::to_string(m.id) +
               " deliver step is not its delivery";
    }
    if (m.received()) {
      if (!m.delivered())
        return "message " + std::to_string(m.id) + " received, never delivered";
      if (m.receive_step >= steps_.size() || m.receive_step < m.deliver_step)
        return "message " + std::to_string(m.id) + " received before delivered";
      const StepRecord& r = steps_[m.receive_step];
      if (!r.is_compute() || r.process != m.recipient)
        return "message " + std::to_string(m.id) +
               " receive step is not a step of its recipient";
    }
  }
  return std::nullopt;
}

std::string TimedComputation::to_string(std::size_t max_steps) const {
  std::ostringstream os;
  os << (substrate_ == Substrate::kSharedMemory ? "SMM" : "MPM") << " trace, "
     << steps_.size() << " steps, " << messages_.size() << " messages\n";
  const std::size_t shown = steps_.size() < max_steps ? steps_.size() : max_steps;
  for (std::size_t i = 0; i < shown; ++i)
    os << "  " << i << ": " << steps_[i].to_string() << '\n';
  if (shown < steps_.size())
    os << "  ... (" << steps_.size() - shown << " more)\n";
  return os.str();
}

}  // namespace sesp
