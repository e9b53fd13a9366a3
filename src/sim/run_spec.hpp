#pragma once

// The run vocabulary sesp_cli, sesp_serve (serve::Request) and the
// conformance harness share. A RunSpec names one instance of a Table-1
// cell, and this module owns each decision that turns it into a run, in
// exactly one place:
//
//   * model -> TimingConstraints, with the periodic period ladder
//     (run_constraints);
//   * name -> algorithm factory (the one registry) and the spec's Table-1
//     pick;
//   * lockstep / random / periodic -> scheduler and delays;
//   * the sweep constants shared by the tool and the server;
//   * substrate dispatch of a run, the worst-case family, the degradation
//     grid and differential replay (RunPlan).
//
// A served run and the same sesp_cli run are therefore built identically,
// which keeps served replies and sweep reports byte-equal to the tool's.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "adversary/schedulers.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"

namespace sesp {

struct RunSpec {
  std::string substrate = "mpm";    // mpm | smm | p2p
  std::string model = "semisync";   // sync|periodic|semisync|sporadic|async
  std::string adversary = "worst";  // worst | lockstep | random
  ProblemSpec spec{3, 3, 2};
  Ratio c1 = 1, c2 = 2, d1 = 0, d2 = 4;
  std::uint64_t seed = 1992;
};

// Scheduled processes: smm_total_processes(n, b) on the SMM, else n.
std::int32_t run_processes(const RunSpec& r);

// nullopt for an unknown model. Periodic process i of `total` has period
// c1 + (c2 - c1) * i/(total-1).
std::optional<TimingConstraints> run_constraints(const RunSpec& r);

// Named factory registry. Correct algorithms: "sync", "periodic",
// "semisync", "semisync-stepcount", "semisync-communicate", "async",
// "sporadic" (MPM), "sporadic-nocond2" (MPM). Broken algorithms:
// "broken-nowait", "broken-halfslack", "broken-treeonly" (SMM),
// "broken-impatient" (MPM), and "broken-toofewsteps:<K>" (both substrates).
// Returns nullptr for unknown names or substrate mismatches.
std::unique_ptr<SmmAlgorithmFactory> make_smm_factory(const std::string& name);
std::unique_ptr<MpmAlgorithmFactory> make_mpm_factory(const std::string& name);

// The single-run adversary. Periodic: the one schedule of the period
// vector. "lockstep": every process at c2 (c1 under sporadic, except on the
// SMM) with delays d2. Otherwise seeded uniform gaps in [c1 (c2/8 if
// c1 = 0), c2] ([c1, 8*c1] under sporadic, except on the SMM) and uniform
// delays in [d1, d2].
std::unique_ptr<StepScheduler> run_scheduler(const RunSpec& r,
                                             const TimingConstraints& c);
std::unique_ptr<DelayStrategy> run_delays(const RunSpec& r);

struct SpecOutcome {
  TimedComputation trace;
  Verdict verdict;
  std::optional<SimError> error;
};

// A RunSpec resolved on the MPM or the SMM: constraints plus the Table-1
// algorithm (the registry entry named after the model; the sporadic SMM
// cell, for which the paper gives no algorithm, runs "async", which is
// correct under every schedule), dispatched to the substrate's run, sweeps
// and replay.
class RunPlan {
 public:
  // nullopt for an unknown model or a substrate other than mpm | smm.
  static std::optional<RunPlan> resolve(const RunSpec& r);

  const char* algorithm() const;
  // One verified run under run_scheduler / run_delays.
  SpecOutcome run(FaultInjector* faults = nullptr,
                  obs::Observer* observer = nullptr) const;
  // The model's worst-case family with the shared random-run count.
  WorstCase worst_case(const RunContext& ctx = {}) const;
  // The default crash x fault-rate grid under the shared step budget.
  DegradationReport degradation(const RunContext& ctx = {}) const;
  ReplayReport replay(const TimedComputation& trace,
                      obs::Observer* observer = nullptr) const;

 private:
  RunSpec spec_;
  TimingConstraints constraints_;
  std::unique_ptr<MpmAlgorithmFactory> mpm_;  // set on the MPM
  std::unique_ptr<SmmAlgorithmFactory> smm_;  // set on the SMM
};

}  // namespace sesp
