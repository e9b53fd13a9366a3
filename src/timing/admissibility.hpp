#pragma once

// Machine checker for the paper's admissibility predicate (Section 2.2):
// every simulator run and every adversary-constructed computation in this
// library is validated against it, so "admissible timed computation" is a
// checked property, not an assumption.

#include <optional>
#include <string>
#include <vector>

#include "model/timed_computation.hpp"
#include "timing/constraints.hpp"
#include "util/scratch.hpp"

namespace sesp {

// Exact location of the first admissibility violation: the trace step at
// which the computation leaves the admissible space, the responsible
// process, the model time, and (for delay violations) the message. This is
// the detection half of the fault-tolerance contract: an injected timing
// violation or duplicated delivery is localized to the step, not just
// narrated.
struct ViolationSite {
  std::size_t step_index = 0;
  ProcessId process = kNetworkProcess;
  Time time;
  MsgId message = kNoMsg;
};

struct AdmissibilityReport {
  bool admissible = true;
  // Human-readable description of the first violation found.
  std::string violation;
  // Machine-readable location of that violation, when it maps to a step
  // (gap and delay violations do; invalid constraints do not).
  std::optional<ViolationSite> site;

  explicit operator bool() const noexcept { return admissible; }
};

// Single-pass admissibility prover (docs/performance.md "Verifier hot
// path"). Feed every step in trace order, then call messages(); proven()
// is true only when every check of check_admissible — the structural
// battery, the per-model step-gap bounds, the message-delay bounds —
// provably holds. "Not proven" does NOT mean inadmissible: callers fall
// back to check_admissible, whose error selection and wording are the
// contract, so reports stay byte-identical. step() is cheap enough to fuse
// into another scan of the trace (the verifier folds it into its counting
// pass, making the admissible case — every grid-sweep trace, since sweeps
// inject no timing faults — a single pass over the steps).
class AdmissibilityScan {
 public:
  AdmissibilityScan(const TimedComputation& tc, const TimingConstraints& c);

  // Feed the next step of the trace (steps must arrive in trace order,
  // starting at index 0). The message checks ride along this scan in a hot
  // sliding window instead of a separate cold pass over the message log:
  //
  //  * trace messages are appended in send order, so a cursor consumes the
  //    contiguous run of messages whose send_step is the current index
  //    (tallying how many claim to be delivered/received);
  //  * a delivery step at index i "vouches" for its message m exactly when
  //    m.deliver_step == i; the vouching step is m's delivery by
  //    construction, and the send time needed for the delay bound sits a
  //    bounded-delay window behind the scan cursor, still in cache;
  //  * a vouched delivery queues m on its recipient, and the recipient's
  //    next compute step vouches for m's receive_step the same way
  //    (mirroring how the simulators assign receive steps).
  //
  // messages() then just compares vouch counts with the tallies: a message
  // the original per-message checks would reject is never vouched, so any
  // mismatch (or an unconsumed cursor) degrades to "not proven" and the
  // caller's precise fallback decides.
  //
  // Returns the step gap (st.time minus the process's previous compute
  // time, virtual time-0 predecessor) when this is a compute step the scan
  // processed, else nullptr — a fused caller tracking its own gap measure
  // (the verifier's gamma) can reuse the subtraction instead of repeating
  // it. The pointer is valid until the next step() call. After the scan
  // gives up (proven() false) it returns nullptr, so callers keep their own
  // predecessor times and fall back to subtracting when no gap is offered.
  const Duration* step(const StepRecord& st) {
    const std::size_t i = idx_++;
    if (!ok_) return nullptr;
    if (st.time < prev_time_) {
      ok_ = false;
      return nullptr;
    }
    prev_time_ = st.time;

    const auto& msgs = tc_.messages();
    while (next_send_ < msgs.size() && msgs[next_send_].send_step == i) {
      delivered_total_ += msgs[next_send_].delivered() ? 1 : 0;
      received_total_ += msgs[next_send_].received() ? 1 : 0;
      ++next_send_;
    }

    if (st.kind == StepKind::kDeliver) {
      const MsgId id = st.delivered;
      // id < next_send_ also proves m.send_step <= i, i.e. sent-before-
      // delivered; anything else (including a stray delivery step no
      // message points back to) stays unproven.
      if (id < 0 || static_cast<std::size_t>(id) >= next_send_) {
        ok_ = false;
        return nullptr;
      }
      const MessageRecord& m = msgs[static_cast<std::size_t>(id)];
      if (m.deliver_step != i) {
        ok_ = false;
        return nullptr;
      }
      ++matched_deliver_;
      const Duration delay = st.time - tc_.steps()[m.send_step].time;
      if (delay_exact_ ? delay != delay_hi_
                       : (delay < delay_lo_ || delay_hi_ < delay)) {
        ok_ = false;
        return nullptr;
      }
      if (m.recipient >= 0 && m.recipient < num_processes_)
        pending_[static_cast<std::size_t>(m.recipient)].push_back(id);
      return nullptr;
    }

    if (!st.is_compute()) return nullptr;
    if (st.process < 0 || st.process >= num_processes_) {
      ok_ = false;
      return nullptr;
    }
    const auto p = static_cast<std::size_t>(st.process);
    if (idle_[p] && !st.idle_after) {
      ok_ = false;
      return nullptr;
    }
    if (st.idle_after) idle_[p] = true;

    auto& pend = pending_[p];
    if (!pend.empty()) {
      for (const MsgId id : pend)
        matched_receive_ +=
            msgs[static_cast<std::size_t>(id)].receive_step == i ? 1 : 0;
      pend.clear();
    }

    gap_ = st.time - last_[p];
    last_[p] = st.time;
    if (!no_gap_bounds_) {
      switch (model_) {
        case TimingModel::kSynchronous:
          if (gap_ != c_.c2) ok_ = false;
          break;
        case TimingModel::kPeriodic:
          if (gap_ != c_.periods[p]) ok_ = false;
          break;
        case TimingModel::kSemiSynchronous:
          if (gap_ < c_.c1 || c_.c2 < gap_) ok_ = false;
          break;
        case TimingModel::kSporadic:
          if (gap_ < c_.c1) ok_ = false;
          break;
        case TimingModel::kAsynchronous:
          if (!gap_.is_positive() || c_.c2 < gap_) ok_ = false;
          break;
      }
    }
    return &gap_;
  }

  // Settles the message checks; call once, after every step was fed.
  void messages();

  // True only when every admissibility check provably holds. Callers must
  // additionally run c.validate() before trusting a proven scan —
  // check_admissible rejects invalid constraints first, and this scan does
  // not replicate that.
  bool proven() const noexcept { return ok_; }

 private:
  const TimedComputation& tc_;
  const TimingConstraints& c_;
  TimingModel model_;
  std::int32_t num_processes_;
  bool no_gap_bounds_ = false;
  bool ok_ = true;
  Time prev_time_;
  // Per-process tables, recycled per thread (util/scratch.hpp) and sized
  // by the constructor; the scan works through their data pointers.
  struct Tables {
    // Byte flags, not vector<bool>: one predicted load/store per step
    // instead of a read-modify-write bit mask in the hottest loop of the
    // verifier.
    std::vector<char> idle;
    std::vector<Time> last;
    std::vector<std::vector<MsgId>> pending;  // first num_processes_ in use
  };
  Recycled<Tables> tables_;
  char* idle_ = nullptr;
  Time* last_ = nullptr;
  std::vector<MsgId>* pending_ = nullptr;
  Duration gap_;  // gap of the last compute step; see step()

  // Message-check state (see step()).
  std::size_t idx_ = 0;
  std::size_t next_send_ = 0;
  std::int64_t delivered_total_ = 0;
  std::int64_t received_total_ = 0;
  std::int64_t matched_deliver_ = 0;
  std::int64_t matched_receive_ = 0;
  bool delay_exact_ = false;
  Duration delay_lo_;
  Duration delay_hi_;
};

// Checks both structural validity (TimedComputation::structural_error) and
// the timing-model constraint:
//  * per-process consecutive compute-step gaps (with time 0 as the virtual
//    predecessor of each process's first step);
//  * message delays (MPM traces only).
//
// For finite traces the "infinitely many steps / eventually delivered"
// liveness clauses are interpreted over the active prefix: messages sent
// before all port processes idle need not be delivered within the trace
// (the trace is a prefix of an infinite admissible computation), but any
// recorded delivery must respect the delay bounds.
AdmissibilityReport check_admissible(const TimedComputation& tc,
                                     const TimingConstraints& constraints);

}  // namespace sesp
