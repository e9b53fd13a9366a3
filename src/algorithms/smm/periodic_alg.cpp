#include "algorithms/smm/periodic_alg.hpp"

namespace sesp {

namespace {

// Phase 1: s-1 consecutive port steps, then advertise "done".
// Phase 2: alternate tree and port accesses until every other process is
//   known done. The interleaved port steps mirror the MPM variant, where
//   every waiting step is a port step: sessions keep closing on the slowest
//   process's port accesses while the fast processes wait.
// Phase 3: the first port access after hearing everyone completes session s;
//   idle there.
class PeriodicSmm final : public SmmPortAlgorithm {
 public:
  PeriodicSmm(ProcessId self, std::int64_t s, std::int32_t n)
      : self_(self), s_(s), n_(n), done_(s <= 1) {}

  SmmChoice choose() const override {
    if (s_ <= 1) return SmmChoice::kPort;  // degenerate: one step, no comms
    if (port_steps_ < s_ - 1) return SmmChoice::kPort;  // phase 1
    if (heard_all_) return SmmChoice::kPort;            // phase 3
    return next_is_tree_ ? SmmChoice::kTree : SmmChoice::kPort;  // phase 2
  }

  void on_port_access() override {
    ++port_steps_;
    if (s_ <= 1) {
      idle_ = true;
      return;
    }
    if (port_steps_ >= s_ - 1) done_ = true;
    if (heard_all_) idle_ = true;  // phase-3 step taken
    next_is_tree_ = true;
  }

  PortInfo advertised() const override {
    return PortInfo{port_steps_, 0, done_};
  }

  void on_tree_snapshot(const Knowledge& snapshot) override {
    // A snapshot with the stamp of the last one merged has the same
    // contents, which know_ already holds: skip the merge and the check.
    if (snapshot.stamp() != merged_stamp_) {
      merged_stamp_ = snapshot.stamp();
      know_.merge(snapshot);
      if (know_.all_done(n_, self_)) heard_all_ = true;
    }
    next_is_tree_ = false;
  }

  bool is_idle() const override { return idle_; }

 private:
  ProcessId self_;
  std::int64_t s_;
  std::int32_t n_;
  std::int64_t port_steps_ = 0;
  bool done_;               // taken the s-1 port steps
  bool heard_all_ = false;  // every other process known done
  bool next_is_tree_ = true;
  Knowledge know_;
  std::uint64_t merged_stamp_ = Knowledge::kNoStamp;
  bool idle_ = false;
};

}  // namespace

std::unique_ptr<SmmPortAlgorithm> PeriodicSmmFactory::create(
    ProcessId p, const ProblemSpec& spec,
    const TimingConstraints& /*constraints*/) const {
  return std::make_unique<PeriodicSmm>(p, spec.s, spec.n);
}

}  // namespace sesp
