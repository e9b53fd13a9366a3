// Per-thread run scratch (util/scratch.hpp) is invisible: a run on a thread
// that already ran others — longer, shorter, or cut short by an exception —
// records exactly the bytes and verdict the same run records on a fresh
// thread, whose free lists are empty.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "conformance/generator.hpp"
#include "conformance/oracles.hpp"
#include "model/trace_io.hpp"
#include "mpm/mpm_simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sim/run_spec.hpp"
#include "util/ratio.hpp"

namespace sesp {
namespace {

// Every Verdict field, rendered.
std::string verdict_text(const Verdict& v) {
  std::ostringstream os;
  os << v.admissible << '|' << v.admissibility_violation << '|'
     << (v.violation_site ? v.violation_site->step_index : 0) << '|'
     << v.sessions << '|' << v.all_ports_idle << '|' << v.solves << '|'
     << (v.termination_time ? v.termination_time->to_string() : "-") << '|'
     << v.rounds.full_rounds << '|' << v.rounds.partial_tail << '|'
     << (v.gamma ? v.gamma->to_string() : "-");
  return os.str();
}

struct Recorded {
  std::string trace;
  std::string verdict;
  bool operator==(const Recorded&) const = default;
};

RunSpec mpm_spec(const std::string& model, std::int64_t s, std::int32_t n) {
  RunSpec r;
  r.substrate = "mpm";
  r.model = model;
  r.adversary = "random";
  r.spec = ProblemSpec{s, n, 2};
  r.c1 = 1;
  r.c2 = 3;
  r.d1 = 1;
  r.d2 = 4;
  r.seed = 77;
  return r;
}

Recorded record(const RunSpec& r) {
  const auto plan = RunPlan::resolve(r);
  EXPECT_TRUE(plan.has_value());
  const SpecOutcome out = plan->run();
  EXPECT_FALSE(out.error.has_value()) << out.error->to_string();
  return {to_text(out.trace), verdict_text(out.verdict)};
}

template <class F>
auto on_fresh_thread(F f) {
  std::optional<decltype(f())> result;
  std::thread([&] { result.emplace(f()); }).join();
  return std::move(*result);
}

TEST(ScratchRecyclingTest, LongShortLongRunsMatchFreshThreads) {
  const RunSpec long_run = mpm_spec("sporadic", 8, 64);
  const RunSpec short_run = mpm_spec("semisync", 2, 2);
  const Recorded long_fresh = on_fresh_thread([&] { return record(long_run); });
  const Recorded short_fresh =
      on_fresh_thread([&] { return record(short_run); });
  ASSERT_GT(long_fresh.trace.size(), 100 * short_fresh.trace.size());

  const auto sequence = on_fresh_thread([&] {
    std::vector<Recorded> runs;
    runs.push_back(record(long_run));
    runs.push_back(record(short_run));
    runs.push_back(record(long_run));
    return runs;
  });
  EXPECT_TRUE(sequence[0] == long_fresh);
  EXPECT_TRUE(sequence[1] == short_fresh);
  EXPECT_TRUE(sequence[2] == long_fresh);
}

TEST(ScratchRecyclingTest, RepeatedConformanceCasesMatch) {
  // check_case keeps the run, parsed and replayed traces alive together,
  // so all of them draw on the free lists at once.
  const auto judge = [] {
    std::vector<std::string> fragments;
    for (const TimingModel model : conformance::all_models())
      for (const Substrate substrate : conformance::all_substrates()) {
        const conformance::CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(11, 0, fragments.size()));
        const conformance::CaseResult r =
            conformance::check_case(c, conformance::OracleOptions{});
        EXPECT_TRUE(r.ok()) << c.to_string();
        std::string fragment = r.digest_fragment();
        for (const conformance::OracleFailure& f : r.failures)
          fragment += '|' + f.oracle + ':' + f.detail;
        const conformance::GeneratedRun run = conformance::run_case(c);
        if (run.trace) fragment += '|' + to_text(*run.trace);
        fragments.push_back(std::move(fragment));
      }
    return fragments;
  };
  const auto twice = on_fresh_thread([&] {
    auto first = judge();
    auto second = judge();
    return std::make_pair(std::move(first), std::move(second));
  });
  EXPECT_EQ(twice.first, twice.second);
  EXPECT_EQ(twice.second, on_fresh_thread(judge));
}

// Forwards to `inner` for the first `sends` messages, then returns a delay
// whose arrival time leaves int64.
class OverflowingDelay final : public DelayStrategy {
 public:
  OverflowingDelay(DelayStrategy& inner, int sends)
      : inner_(inner), sends_(sends) {}
  Duration delay(ProcessId p, ProcessId q, const Time& t, MsgId m) override {
    if (sends_-- > 0) return inner_.delay(p, q, t, m);
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

 private:
  DelayStrategy& inner_;
  int sends_;
};

TEST(ScratchRecyclingTest, RunAfterArithmeticOverflowMatchesFreshThread) {
  // Times on a 64 x 1000003 grid are interned, not inline, so the run that
  // throws leaves queued events on interned times behind; the next run
  // interns times of that grid again.
  RunSpec overflow = mpm_spec("sporadic", 3, 3);
  overflow.c1 = Ratio(1'000'004, 1'000'003);
  const RunSpec& after = overflow;
  const Recorded fresh = on_fresh_thread([&] { return record(after); });

  const Recorded recycled = on_fresh_thread([&] {
    const auto constraints = run_constraints(overflow);
    const auto factory = make_mpm_factory("sporadic");
    const auto scheduler = run_scheduler(overflow, *constraints);
    const auto delays = run_delays(overflow);
    OverflowingDelay overflowing(*delays, 12);
    obs::MetricsRegistry registry;
    obs::Observer observer(&registry);
    MpmSimulator sim(overflow.spec, *constraints, *factory, *scheduler,
                     overflowing, nullptr, &observer);
    EXPECT_THROW(sim.run(), ArithmeticOverflow);
    EXPECT_GT(registry.counter("sim.steps").value(), 3);
    return record(after);
  });
  EXPECT_TRUE(recycled == fresh);
}

}  // namespace
}  // namespace sesp
