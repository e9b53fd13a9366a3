// Differential equivalence suite for the simulator core rewrite
// (docs/performance.md): the calendar-queue/SoA executors must be
// observationally identical to the recorded-trace semantics — byte-identical
// traces run to run, replay-exact schedules, verdicts stable through a text
// round-trip, and job-count-invariant sweep digests — across every timing
// model, both substrates, random fault plans, and the event-time
// distributions that are adversarial for a calendar queue (same-time storms,
// power-law gaps, denominator blowups past the interned-Ratio inline range).

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/p2p/knowledge_algs.hpp"
#include "conformance/generator.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "model/trace_io.hpp"
#include "mpm/topology.hpp"
#include "session/round_counter.hpp"
#include "session/session_counter.hpp"
#include "session/verifier.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "support/test_support.hpp"
#include "timing/admissibility.hpp"
#include "util/digest.hpp"
#include "util/packed_ratio.hpp"
#include "util/rng.hpp"

namespace sesp {
namespace {

using conformance::CaseDescriptor;
using test_support::JobsGuard;

void expect_verdict_eq(const Verdict& a, const Verdict& b) {
  EXPECT_EQ(a.admissible, b.admissible);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.all_ports_idle, b.all_ports_idle);
  EXPECT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.termination_time, b.termination_time);
  EXPECT_EQ(a.rounds.full_rounds, b.rounds.full_rounds);
  EXPECT_EQ(a.rounds.partial_tail, b.rounds.partial_tail);
  EXPECT_EQ(a.gamma, b.gamma);
}

// Replays the trace's recorded schedule through the matching simulator and
// requires step-by-step agreement.
void expect_replay_exact(const CaseDescriptor& c, const TimedComputation& t) {
  const std::string name = conformance::resolved_algorithm(c);
  if (c.substrate == Substrate::kSharedMemory) {
    const auto factory = make_smm_factory(name);
    ASSERT_TRUE(factory) << name;
    const ReplayReport rep = replay_smm(t, c.spec, c.constraints, *factory);
    EXPECT_TRUE(rep.match) << c.to_string() << ": " << rep.detail;
  } else {
    const auto factory = make_mpm_factory(name);
    ASSERT_TRUE(factory) << name;
    const ReplayReport rep = replay_mpm(t, c.spec, c.constraints, *factory);
    EXPECT_TRUE(rep.match) << c.to_string() << ": " << rep.detail;
  }
}

// --- Conformance sweep: 5 models x 2 substrates -----------------------------

TEST(SimCoreEquiv, ConformanceCellsAreByteStableAndReplayExact) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(31, 7, seed));
        const conformance::GeneratedRun a = conformance::run_case(c);
        const conformance::GeneratedRun b = conformance::run_case(c);
        ASSERT_TRUE(a.ok) << c.to_string() << ": " << a.error;
        ASSERT_TRUE(b.ok) << c.to_string() << ": " << b.error;
        ASSERT_TRUE(a.trace.has_value());
        ASSERT_TRUE(b.trace.has_value());

        // Two executions of one descriptor are byte-identical.
        const std::string text = to_text(*a.trace);
        EXPECT_EQ(text, to_text(*b.trace)) << c.to_string();
        expect_verdict_eq(a.verdict, b.verdict);

        // The recorded schedule replays to the same computation.
        expect_replay_exact(c, *a.trace);

        // The verdict survives a text round-trip of the trace: the fused
        // verifier sees exactly what the original pass saw.
        std::string error;
        const std::optional<TimedComputation> parsed =
            trace_from_text(text, &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        expect_verdict_eq(a.verdict,
                          verify(*parsed, c.spec, c.constraints));
      }
    }
  }
}

// The fused single-pass verdict (verifier.cpp count_all) must be
// value-identical to the standalone routines it replaced, on every cell.
TEST(SimCoreEquiv, FusedVerdictMatchesStandaloneCounters) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(17, 3, seed));
        const conformance::GeneratedRun run = conformance::run_case(c);
        ASSERT_TRUE(run.ok) << c.to_string() << ": " << run.error;
        ASSERT_TRUE(run.trace.has_value());
        const TimedComputation& t = *run.trace;
        const Verdict v = verify(t, c.spec, c.constraints);
        EXPECT_EQ(v.sessions, count_sessions(t).sessions) << c.to_string();
        EXPECT_EQ(v.all_ports_idle, t.all_ports_idle()) << c.to_string();
        EXPECT_EQ(v.termination_time, t.termination_time()) << c.to_string();
        const RoundDecomposition rounds = count_rounds(t);
        EXPECT_EQ(v.rounds.full_rounds, rounds.full_rounds) << c.to_string();
        EXPECT_EQ(v.rounds.partial_tail, rounds.partial_tail)
            << c.to_string();
        EXPECT_EQ(v.gamma, t.gamma()) << c.to_string();
      }
    }
  }
}

// --- Fault plans -------------------------------------------------------------

TEST(SimCoreEquiv, MpmFaultPlansReproduceByteIdenticalRuns) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(1));
  const auto factory = make_mpm_factory("semisync");
  ASSERT_TRUE(factory);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, spec.n);
    const auto once = [&] {
      UniformGapScheduler sched(Ratio(1), Ratio(2), seed);
      FixedDelay delay{Duration(1)};
      FaultInjector faults(plan);
      return run_mpm_once(spec, constraints, *factory, sched, delay,
                          MpmRunLimits{}, &faults);
    };
    const MpmOutcome a = once();
    const MpmOutcome b = once();
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace))
        << "seed=" << seed << " plan=" << plan.to_string();
    EXPECT_EQ(a.run.completed, b.run.completed);
    EXPECT_EQ(a.run.crashed, b.run.crashed);
    EXPECT_EQ(a.run.error.has_value(), b.run.error.has_value());
    expect_verdict_eq(a.verdict, b.verdict);
  }
}

TEST(SimCoreEquiv, SmmFaultPlansReproduceByteIdenticalRuns) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2));
  const auto factory = make_smm_factory("semisync");
  ASSERT_TRUE(factory);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, spec.n);
    const auto once = [&] {
      UniformGapScheduler sched(Ratio(1), Ratio(2), seed);
      FaultInjector faults(plan);
      return run_smm_once(spec, constraints, *factory, sched, SmmRunLimits{},
                          &faults);
    };
    const SmmOutcome a = once();
    const SmmOutcome b = once();
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace))
        << "seed=" << seed << " plan=" << plan.to_string();
    EXPECT_EQ(a.run.completed, b.run.completed);
    EXPECT_EQ(a.run.crashed, b.run.crashed);
    expect_verdict_eq(a.verdict, b.verdict);
  }
}

TEST(SimCoreEquiv, ChaosSweepReportsAreJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto mpm_constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(1));
  const auto smm_constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2));
  const auto mpm_factory = make_mpm_factory("semisync");
  const auto smm_factory = make_smm_factory("semisync");
  ASSERT_TRUE(mpm_factory);
  ASSERT_TRUE(smm_factory);

  ChaosReport mpm_ref, smm_ref;
  {
    JobsGuard guard(1);
    mpm_ref = mpm_chaos_sweep(spec, mpm_constraints, *mpm_factory, 16);
    smm_ref = smm_chaos_sweep(spec, smm_constraints, *smm_factory, 16);
  }
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(mpm_chaos_sweep(spec, mpm_constraints, *mpm_factory, 16),
              mpm_ref)
        << "jobs=" << jobs;
    EXPECT_EQ(smm_chaos_sweep(spec, smm_constraints, *smm_factory, 16),
              smm_ref)
        << "jobs=" << jobs;
  }
}

// --- Write corruption pins ---------------------------------------------------

// Write corruption is the one fault after which a port process's merged
// knowledge can hold more than its uplink variable: the variable loses its
// contents, the process does not. It is therefore where the SMM's
// incremental knowledge paths (stamp-skipped snapshot merges, the relay
// gossip memo, Knowledge::exchange) would first diverge from plain merging.
// The digests of to_text(trace) were recorded with plain merging.
TEST(SimCoreEquiv, SmmWriteCorruptionTracesMatchPinnedDigests) {
  struct Pin {
    const char* algorithm;
    std::int32_t n;
    std::int32_t b;
    const char* plan;
    const char* digest;
  };
  const char* const kRate = "corrupt:15%,seed:11";
  const char* const kAt = "corrupt:@3,corrupt:@17,corrupt:@60";
  const Pin pins[] = {
      {"semisync-communicate", 8, 2, kRate, "ca1c6341bfea3f33"},
      {"semisync-communicate", 8, 2, kAt, "910f3efcdc619fb7"},
      {"semisync-communicate", 8, 4, kRate, "74cc7f3154fd4fa6"},
      {"semisync-communicate", 8, 4, kAt, "96f7e886eef6f414"},
      {"semisync-communicate", 16, 2, kRate, "fddcb0bca5833406"},
      {"semisync-communicate", 16, 2, kAt, "c71c7e135bce7d0f"},
      {"semisync-communicate", 16, 4, kRate, "0a89d88acd3c21b4"},
      {"semisync-communicate", 16, 4, kAt, "9e71317cb80aac08"},
      {"async", 8, 2, kRate, "647602f0b83ba664"},
      {"async", 8, 2, kAt, "5fbf07faa02d0f10"},
      {"async", 8, 4, kRate, "20407a214a5b6825"},
      {"async", 8, 4, kAt, "9058dec7c56ebbb7"},
      {"async", 16, 2, kRate, "7dd918883636e402"},
      {"async", 16, 2, kAt, "47e3899292cece12"},
      {"async", 16, 4, kRate, "d022ae17a10d12a3"},
      {"async", 16, 4, kAt, "f607b5de03d4cd4f"},
      {"periodic", 8, 2, kRate, "20e716cb8c73d834"},
      {"periodic", 8, 2, kAt, "a04340fa05841c0d"},
      {"periodic", 8, 4, kRate, "17908dc3b9cf50d1"},
      {"periodic", 8, 4, kAt, "8c39abd95e833584"},
      {"periodic", 16, 2, kRate, "8ef44fa458d596ff"},
      {"periodic", 16, 2, kAt, "091e4532b2c51a32"},
      {"periodic", 16, 4, kRate, "9a66b3c22276d92f"},
      {"periodic", 16, 4, kAt, "8df3ae0de2e8e95c"},
  };
  for (const Pin& pin : pins) {
    const ProblemSpec spec{3, pin.n, pin.b};
    const std::string algorithm = pin.algorithm;
    const auto factory = make_smm_factory(algorithm);
    ASSERT_TRUE(factory) << algorithm;
    const std::optional<FaultPlan> plan = FaultPlan::parse(pin.plan);
    ASSERT_TRUE(plan.has_value()) << pin.plan;
    FaultInjector faults(*plan);
    const SmmOutcome out = [&] {
      if (algorithm == "periodic") {
        // Heterogeneous fixed periods, port 0 slowest.
        std::vector<Duration> periods(
            static_cast<std::size_t>(smm_total_processes(pin.n, pin.b)),
            Duration(1));
        periods[0] = Duration(3);
        periods[1] = Duration(2);
        FixedPeriodScheduler sched(periods);
        return run_smm_once(spec, TimingConstraints::periodic(periods),
                            *factory, sched, SmmRunLimits{}, &faults);
      }
      // The asynchronous runs draw from a wider gap range than the
      // semi-synchronous [1, 3], so the two round-based pins differ.
      const bool async = algorithm == "async";
      const auto constraints =
          async ? TimingConstraints::asynchronous()
                : TimingConstraints::semi_synchronous(Ratio(1), Ratio(3));
      UniformGapScheduler sched(Ratio(1), Ratio(async ? 8 : 3),
                                static_cast<std::uint64_t>(pin.n * 10 + pin.b));
      return run_smm_once(spec, constraints, *factory, sched, SmmRunLimits{},
                          &faults);
    }();
    const std::string where = algorithm + " n=" + std::to_string(pin.n) +
                              " b=" + std::to_string(pin.b) + " " + pin.plan;
    EXPECT_GT(faults.injected(FaultKind::kWriteCorruption), 0) << where;
    EXPECT_TRUE(out.run.completed) << where;
    EXPECT_EQ(util::fnv1a_hex(util::fnv1a(to_text(out.run.trace))),
              pin.digest)
        << where;
  }
}

// --- Adversarial event-time distributions ------------------------------------

// Synchronous period-1 schedule: every tick lands all n computes (and, one
// delay later, all n^2 deliveries) in a single calendar bucket — the
// same-time storm that dominates bench_faults.
TEST(SimCoreEquiv, SameTimeStormMatchesReplayOnBothSubstrates) {
  const ProblemSpec spec{3, 4, 2};
  {
    const auto constraints = TimingConstraints::synchronous(1, 1);
    const auto factory = make_mpm_factory("sync");
    ASSERT_TRUE(factory);
    const auto once = [&] {
      FixedPeriodScheduler sched(spec.n, Duration(1));
      FixedDelay delay{Duration(1)};
      return run_mpm_once(spec, constraints, *factory, sched, delay);
    };
    const MpmOutcome a = once();
    const MpmOutcome b = once();
    ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
    EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
    EXPECT_TRUE(a.verdict.solves);
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
    const auto rep = replay_mpm(a.run.trace, spec, constraints, *factory);
    EXPECT_TRUE(rep.match) << rep.detail;
  }
  {
    const auto constraints = TimingConstraints::synchronous(1);
    const auto factory = make_smm_factory("sync");
    ASSERT_TRUE(factory);
    const auto once = [&] {
      FixedPeriodScheduler sched(smm_total_processes(spec.n, spec.b),
                                 Duration(1));
      return run_smm_once(spec, constraints, *factory, sched);
    };
    const SmmOutcome a = once();
    const SmmOutcome b = once();
    ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
    EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
    EXPECT_TRUE(a.verdict.solves);
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
    const auto rep = replay_smm(a.run.trace, spec, constraints, *factory);
    EXPECT_TRUE(rep.match) << rep.detail;
  }
}

// Gaps of 2^k spread events over exponentially growing distances — the
// distribution where a naive bucket array degenerates and the queue must
// fall back to its comparison heap.
class PowerLawScheduler final : public StepScheduler {
 public:
  explicit PowerLawScheduler(std::uint64_t seed) : rng_(seed) {}
  Time next_step_time(ProcessId, std::optional<Time> prev,
                      std::int64_t) override {
    const Time base = prev ? *prev : Time(0);
    return base + Duration(std::int64_t{1} << rng_.next_below(7));
  }

 private:
  Rng rng_;
};

TEST(SimCoreEquiv, PowerLawGapScheduleIsReplayExact) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Ratio(1), Ratio(1), Ratio(1));
  const auto factory = make_mpm_factory("sporadic");
  ASSERT_TRUE(factory);
  const auto once = [&] {
    PowerLawScheduler sched(0x9e3779b97f4a7c15ULL);
    FixedDelay delay{Duration(1)};
    return run_mpm_once(spec, constraints, *factory, sched, delay);
  };
  const MpmOutcome a = once();
  const MpmOutcome b = once();
  ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
  EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
  EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
  const auto rep = replay_mpm(a.run.trace, spec, constraints, *factory);
  EXPECT_TRUE(rep.match) << rep.detail;
}

// Periods of 3 + 1/q with q past the PackedRatio inline-denominator limit:
// every event time takes the interned-pool path of the calendar queue's
// bucket index, and each process pins a distinct pooled key.
TEST(SimCoreEquiv, DenominatorBlowupsTakeThePooledPathAndStayExact) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Ratio(1), Ratio(1), Ratio(1));
  const auto factory = make_mpm_factory("sporadic");
  ASSERT_TRUE(factory);
  std::vector<Duration> periods;
  for (std::int32_t p = 0; p < spec.n; ++p) {
    const std::int64_t q = PackedRatio::kDenMax + 1 + p;
    periods.push_back(Duration(3 * q + 1, q));  // 3 + 1/q, den > inline max
    ASSERT_FALSE(PackedRatio::fits_inline(periods.back().num(),
                                          periods.back().den()));
  }
  const auto once = [&] {
    FixedPeriodScheduler sched(periods);
    FixedDelay delay{Duration(1)};
    return run_mpm_once(spec, constraints, *factory, sched, delay);
  };
  const MpmOutcome a = once();
  const MpmOutcome b = once();
  ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
  EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
  EXPECT_TRUE(a.verdict.solves);
  EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
  const auto rep = replay_mpm(a.run.trace, spec, constraints, *factory);
  EXPECT_TRUE(rep.match) << rep.detail;
}

// --- P2P substrate -----------------------------------------------------------

TEST(SimCoreEquiv, P2pSameTimeStormIsDeterministicAndSolves) {
  const ProblemSpec spec{3, 4, 2};
  const auto constraints = TimingConstraints::synchronous(2, 4);
  const Topology topo = Topology::complete(spec.n);
  const P2pSyncFactory factory;
  const auto once = [&] {
    FixedPeriodScheduler sched(spec.n, Duration(2));
    FixedDelay delay{Duration(4)};
    return run_p2p_once(spec, constraints, topo, factory, sched, delay);
  };
  const P2pOutcome a = once();
  const P2pOutcome b = once();
  ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
  EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
  EXPECT_TRUE(a.verdict.solves);
  EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
  expect_verdict_eq(a.verdict, b.verdict);
}

}  // namespace
}  // namespace sesp
