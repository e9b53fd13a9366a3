#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "obs/json.hpp"

namespace sesp::obs {

const char* profile_phase_name(ProfilePhase phase) noexcept {
  switch (phase) {
    case ProfilePhase::kEventQueuePop: return "sim.queue_pop";
    case ProfilePhase::kDeliver: return "sim.deliver";
    case ProfilePhase::kProcessStep: return "sim.step";
    case ProfilePhase::kSchedule: return "sim.schedule";
    case ProfilePhase::kAdmissibility: return "verify.admissibility";
    case ProfilePhase::kSessionCount: return "verify.count";
    case ProfilePhase::kExecTask: return "exec.task";
    case ProfilePhase::kServeRequest: return "serve.request";
    case ProfilePhase::kServeExec: return "serve.exec";
    case ProfilePhase::kCount: break;
  }
  return "unknown";
}

void PhaseStat::record(std::int64_t dur_ns) noexcept {
  if (count == 0 || dur_ns < min_ns) min_ns = dur_ns;
  if (count == 0 || dur_ns > max_ns) max_ns = dur_ns;
  ++count;
  total_ns += dur_ns;
  ring[static_cast<std::size_t>(ring_next)] = dur_ns;
  ring_next = (ring_next + 1) % kRecentSamples;
  if (ring_size < kRecentSamples) ++ring_size;
}

std::array<std::int64_t, PhaseStat::kRecentSamples> PhaseStat::recent()
    const noexcept {
  std::array<std::int64_t, kRecentSamples> out{};
  const std::int32_t start =
      ring_size < kRecentSamples ? 0 : ring_next;  // oldest sample
  for (std::int32_t i = 0; i < ring_size; ++i)
    out[static_cast<std::size_t>(i)] =
        ring[static_cast<std::size_t>((start + i) % kRecentSamples)];
  return out;
}

void PhaseStat::merge_from(const PhaseStat& other) noexcept {
  if (other.count == 0) return;
  if (count == 0 || other.min_ns < min_ns) min_ns = other.min_ns;
  if (count == 0 || other.max_ns > max_ns) max_ns = other.max_ns;
  count += other.count;
  total_ns += other.total_ns;
  const auto samples = other.recent();
  for (std::int32_t i = 0; i < other.ring_size; ++i) {
    ring[static_cast<std::size_t>(ring_next)] =
        samples[static_cast<std::size_t>(i)];
    ring_next = (ring_next + 1) % kRecentSamples;
    if (ring_size < kRecentSamples) ++ring_size;
  }
}

bool Profiler::empty() const noexcept {
  for (const PhaseStat& s : stats_)
    if (s.count > 0) return false;
  return true;
}

std::int64_t Profiler::total_ns() const noexcept {
  std::int64_t total = 0;
  for (const PhaseStat& s : stats_) total += s.total_ns;
  return total;
}

void Profiler::merge_from(const Profiler& other) noexcept {
  for (int p = 0; p < kProfilePhases; ++p)
    stats_[static_cast<std::size_t>(p)].merge_from(
        other.stats_[static_cast<std::size_t>(p)]);
}

void Profiler::write_json(JsonWriter& w) const {
  w.begin_object();
  for (int p = 0; p < kProfilePhases; ++p) {
    const PhaseStat& s = stats_[static_cast<std::size_t>(p)];
    w.key(profile_phase_name(static_cast<ProfilePhase>(p)));
    w.begin_object();
    w.field("count", s.count);
    if (s.count > 0) {
      w.field("total_ns", s.total_ns);
      w.field("min_ns", s.min_ns);
      w.field("max_ns", s.max_ns);
      w.field("mean_ns",
              static_cast<double>(s.total_ns) / static_cast<double>(s.count));
      w.key("recent_ns");
      w.begin_array();
      const auto samples = s.recent();
      for (std::int32_t i = 0; i < s.ring_size; ++i)
        w.value(samples[static_cast<std::size_t>(i)]);
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
}

std::string Profiler::to_string() const {
  std::vector<int> order;
  for (int p = 0; p < kProfilePhases; ++p)
    if (stats_[static_cast<std::size_t>(p)].count > 0) order.push_back(p);
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    const PhaseStat& sa = stats_[static_cast<std::size_t>(a)];
    const PhaseStat& sb = stats_[static_cast<std::size_t>(b)];
    if (sa.total_ns != sb.total_ns) return sa.total_ns > sb.total_ns;
    return a < b;
  });
  std::ostringstream os;
  os << "profile (phase / count / total ms / mean us / min us / max us):\n";
  if (order.empty()) {
    os << "  (no phases recorded)\n";
    return os.str();
  }
  for (const int p : order) {
    const PhaseStat& s = stats_[static_cast<std::size_t>(p)];
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-20s %12lld %12.3f %10.3f %10.3f %10.3f\n",
                  profile_phase_name(static_cast<ProfilePhase>(p)),
                  static_cast<long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<double>(s.total_ns) /
                      static_cast<double>(s.count) / 1e3,
                  static_cast<double>(s.min_ns) / 1e3,
                  static_cast<double>(s.max_ns) / 1e3);
    os << line;
  }
  return os.str();
}

}  // namespace sesp::obs
