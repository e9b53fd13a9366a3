#include "algorithms/smm/semisync_alg.hpp"

#include <algorithm>

#include "smm/tree_network.hpp"

namespace sesp {

namespace {

class StepCountSmm final : public SmmPortAlgorithm {
 public:
  StepCountSmm(std::int64_t s, std::int64_t per_session)
      : target_(std::max<std::int64_t>(per_session * (s - 1) + 1, 1)) {}

  SmmChoice choose() const override { return SmmChoice::kPort; }

  void on_port_access() override {
    ++steps_;
    if (steps_ >= target_) idle_ = true;
  }

  PortInfo advertised() const override { return PortInfo{steps_, 0, idle_}; }
  void on_tree_snapshot(const Knowledge& /*snapshot*/) override {}
  bool is_idle() const override { return idle_; }

 private:
  std::int64_t target_;
  std::int64_t steps_ = 0;
  bool idle_ = false;
};

// One session per knowledge round: port step for round r, then tree accesses
// until every other process is known to have completed round r, then round
// r+1. Advertises session = number of completed rounds.
class RoundBasedSmm final : public SmmPortAlgorithm {
 public:
  RoundBasedSmm(ProcessId self, std::int64_t s, std::int32_t n)
      : self_(self), s_(s), n_(n) {}

  SmmChoice choose() const override {
    return pending_port_ ? SmmChoice::kPort : SmmChoice::kTree;
  }

  void on_port_access() override {
    pending_port_ = false;
    ++completed_rounds_;
    if (completed_rounds_ >= s_) idle_ = true;
  }

  PortInfo advertised() const override {
    return PortInfo{completed_rounds_, completed_rounds_,
                    completed_rounds_ >= s_};
  }

  void on_tree_snapshot(const Knowledge& snapshot) override {
    // A snapshot with the stamp of the last one merged has the same
    // contents, which know_ already holds; in the same round the check
    // below would decide as it did then. Skip both.
    if (snapshot.stamp() == merged_stamp_ &&
        completed_rounds_ == checked_round_)
      return;
    merged_stamp_ = snapshot.stamp();
    checked_round_ = completed_rounds_;
    know_.merge(snapshot);
    if (completed_rounds_ < s_ &&
        know_.all_have_session(n_, completed_rounds_, self_))
      pending_port_ = true;
  }

  bool is_idle() const override { return idle_; }

 private:
  ProcessId self_;
  std::int64_t s_;
  std::int32_t n_;
  std::int64_t completed_rounds_ = 0;
  bool pending_port_ = true;  // round 1 needs no waiting
  Knowledge know_;
  std::uint64_t merged_stamp_ = Knowledge::kNoStamp;
  std::int64_t checked_round_ = -1;
  bool idle_ = false;
};

}  // namespace

std::unique_ptr<SmmPortAlgorithm> make_step_count_smm(
    std::int64_t s, std::int64_t per_session) {
  return std::make_unique<StepCountSmm>(s, per_session);
}

std::unique_ptr<SmmPortAlgorithm> make_round_based_smm(ProcessId self,
                                                       std::int64_t s,
                                                       std::int32_t n) {
  return std::make_unique<RoundBasedSmm>(self, s, n);
}

std::int64_t smm_tree_latency_steps(std::int32_t n, std::int32_t b) {
  return TreeNetwork::shape(n, std::max(b, 2)).latency_steps_bound();
}

SmmSemiSyncStrategy SemiSyncSmmFactory::pick(
    const ProblemSpec& spec, const TimingConstraints& constraints) {
  const std::int64_t B = (constraints.c2 / constraints.c1).floor() + 1;
  // Communication costs a tree round trip plus the bracketing port/tree
  // steps of the leaf itself.
  const std::int64_t comm = smm_tree_latency_steps(spec.n, spec.b) + 4;
  return B <= comm ? SmmSemiSyncStrategy::kStepCount
                   : SmmSemiSyncStrategy::kCommunicate;
}

std::unique_ptr<SmmPortAlgorithm> SemiSyncSmmFactory::create(
    ProcessId p, const ProblemSpec& spec,
    const TimingConstraints& constraints) const {
  SmmSemiSyncStrategy strategy = strategy_;
  if (strategy == SmmSemiSyncStrategy::kAuto) strategy = pick(spec, constraints);
  if (strategy == SmmSemiSyncStrategy::kStepCount) {
    const std::int64_t B = (constraints.c2 / constraints.c1).floor() + 1;
    return make_step_count_smm(spec.s, B);
  }
  return make_round_based_smm(p, spec.s, spec.n);
}

const char* SemiSyncSmmFactory::name() const {
  switch (strategy_) {
    case SmmSemiSyncStrategy::kAuto: return "semisync-smm(auto)";
    case SmmSemiSyncStrategy::kStepCount: return "semisync-smm(steps)";
    case SmmSemiSyncStrategy::kCommunicate: return "semisync-smm(comm)";
  }
  return "semisync-smm";
}

}  // namespace sesp
