#include "timing/admissibility.hpp"

#include <sstream>
#include <vector>

namespace sesp {

namespace {

AdmissibilityReport violation(std::string text,
                              std::optional<ViolationSite> site =
                                  std::nullopt) {
  AdmissibilityReport r;
  r.admissible = false;
  r.violation = std::move(text);
  r.site = std::move(site);
  return r;
}

ViolationSite step_site(std::size_t step_index, ProcessId process,
                        const Time& time, MsgId message = kNoMsg) {
  ViolationSite s;
  s.step_index = step_index;
  s.process = process;
  s.time = time;
  s.message = message;
  return s;
}

std::string describe_gap(ProcessId p, std::size_t step_index, const Time& prev,
                         const Time& now) {
  std::ostringstream os;
  os << "process " << p << " step at index " << step_index << ": gap "
     << (now - prev) << " (prev t=" << prev << ", now t=" << now << ")";
  return os.str();
}

}  // namespace

AdmissibilityScan::AdmissibilityScan(const TimedComputation& tc,
                                     const TimingConstraints& c)
    : tc_(tc),
      c_(c),
      model_(c.model),
      num_processes_(tc.num_processes()),
      prev_time_(0),
      delay_lo_(0),
      delay_hi_(c.d2) {
  no_gap_bounds_ = model_ == TimingModel::kAsynchronous &&
                   tc.substrate() == Substrate::kSharedMemory;
  const auto n =
      static_cast<std::size_t>(num_processes_ > 0 ? num_processes_ : 0);
  ok_ = num_processes_ >= 0 &&
        (model_ != TimingModel::kPeriodic || c.periods.size() >= n);
  Tables& t = *tables_;
  t.idle.assign(n, 0);
  t.last.assign(n, Time(0));
  if (t.pending.size() < n) t.pending.resize(n);
  for (std::size_t p = 0; p < n; ++p) t.pending[p].clear();
  idle_ = t.idle.data();
  last_ = t.last.data();
  pending_ = t.pending.data();
  switch (model_) {
    case TimingModel::kSynchronous:
      delay_exact_ = true;
      delay_lo_ = c.d2;
      break;
    case TimingModel::kSporadic:
      delay_lo_ = c.d1;
      break;
    case TimingModel::kPeriodic:
    case TimingModel::kSemiSynchronous:
    case TimingModel::kAsynchronous:
      break;  // [0, d2]
  }
}

void AdmissibilityScan::messages() {
  if (!ok_) return;
  // Every message consumed by the send cursor, every claimed delivery
  // vouched by its delivery step, every claimed receipt vouched by its
  // recipient's compute step — otherwise some per-message check is
  // unproven and the precise path decides.
  ok_ = next_send_ == tc_.messages().size() &&
        matched_deliver_ == delivered_total_ &&
        matched_receive_ == received_total_;
}

AdmissibilityReport check_admissible(const TimedComputation& tc,
                                     const TimingConstraints& constraints) {
  if (auto err = constraints.validate())
    return violation("invalid constraints: " + *err);
  // Fast path: one fused pass proving every check below holds at once. Any
  // anomaly falls through to the precise sequence, whose error selection
  // and wording are the compatibility contract.
  {
    AdmissibilityScan scan(tc, constraints);
    for (const StepRecord& st : tc.steps()) {
      scan.step(st);
      if (!scan.proven()) break;
    }
    scan.messages();
    if (scan.proven()) return AdmissibilityReport{};
  }
  if (auto err = tc.structural_error())
    return violation("structural: " + *err);

  const TimingModel model = constraints.model;
  const bool smm = tc.substrate() == Substrate::kSharedMemory;

  if (model == TimingModel::kPeriodic &&
      constraints.periods.size() <
          static_cast<std::size_t>(tc.num_processes()))
    return violation("periodic: fewer periods than processes");

  // Per-process step-gap constraints, with time 0 as virtual predecessor.
  // Flat per-process array (docs/performance.md): the structural check above
  // already rejected out-of-range process ids, and "no step yet" and the
  // virtual time-0 predecessor coincide, so no presence flags are needed.
  // The asynchronous SMM puts no bound on gaps at all, so the whole loop
  // would only compute differences and discard them — skip it outright
  // (livelocked async traces are the longest ones the bench verifies).
  const bool no_gap_bounds = model == TimingModel::kAsynchronous && smm;
  std::vector<Time> last(static_cast<std::size_t>(tc.num_processes()),
                         Time(0));
  const auto& steps = tc.steps();
  for (std::size_t i = 0; !no_gap_bounds && i < steps.size(); ++i) {
    const StepRecord& st = steps[i];
    if (!st.is_compute()) continue;
    Time& slot = last[static_cast<std::size_t>(st.process)];
    const Time prev = slot;
    const Duration gap = st.time - prev;
    slot = st.time;
    // Violations are rare; build the site lazily so the admissible path
    // does no per-step ViolationSite work.
    const auto site = [&] { return step_site(i, st.process, st.time); };

    switch (model) {
      case TimingModel::kSynchronous:
        if (gap != constraints.c2)
          return violation("synchronous: " + describe_gap(st.process, i, prev,
                                                          st.time) +
                               ", expected exactly " +
                               constraints.c2.to_string(),
                           site());
        break;
      case TimingModel::kPeriodic: {
        const Duration period =
            constraints.periods[static_cast<std::size_t>(st.process)];
        if (gap != period)
          return violation("periodic: " +
                               describe_gap(st.process, i, prev, st.time) +
                               ", expected exactly " + period.to_string(),
                           site());
        break;
      }
      case TimingModel::kSemiSynchronous:
        if (gap < constraints.c1 || constraints.c2 < gap)
          return violation("semi-synchronous: " +
                               describe_gap(st.process, i, prev, st.time) +
                               ", expected in [" + constraints.c1.to_string() +
                               ", " + constraints.c2.to_string() + "]",
                           site());
        break;
      case TimingModel::kSporadic:
        if (gap < constraints.c1)
          return violation("sporadic: " +
                               describe_gap(st.process, i, prev, st.time) +
                               ", expected >= " + constraints.c1.to_string(),
                           site());
        break;
      case TimingModel::kAsynchronous:
        if (smm) break;  // no bounds in the shared memory form ([2])
        if (!gap.is_positive() || constraints.c2 < gap)
          return violation("asynchronous MPM: " +
                               describe_gap(st.process, i, prev, st.time) +
                               ", expected in (0, " +
                               constraints.c2.to_string() + "]",
                           site());
        break;
    }
  }

  // Message-delay constraints (MPM traces).
  for (const MessageRecord& m : tc.messages()) {
    if (!m.delivered()) continue;
    const Duration delay =
        steps[m.deliver_step].time - steps[m.send_step].time;
    Duration lo = 0, hi = constraints.d2;
    bool exact = false;
    switch (model) {
      case TimingModel::kSynchronous:
        exact = true;
        lo = hi = constraints.d2;
        break;
      case TimingModel::kSporadic:
        lo = constraints.d1;
        break;
      case TimingModel::kPeriodic:
      case TimingModel::kSemiSynchronous:
      case TimingModel::kAsynchronous:
        break;  // [0, d2]
    }
    if (exact ? delay != hi : (delay < lo || hi < delay)) {
      std::ostringstream os;
      os << to_string(model) << ": message " << m.id << " delay " << delay
         << " outside [" << lo << ", " << hi << "]";
      return violation(os.str(),
                       step_site(m.deliver_step, m.recipient,
                                 steps[m.deliver_step].time, m.id));
    }
  }

  return AdmissibilityReport{};
}

}  // namespace sesp
