// exhaustive: explore_mpm walks over every schedule of tiny message-passing
// instances (n <= 3, s <= 3, two or three choices per decision). One unit
// is one walk. A walk passes when it is complete, every schedule is
// admissible and solved, and its schedule count and worst termination time
// equal the values recorded in expected.hpp.

#include <iostream>
#include <memory>

#include "adversary/exhaustive.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "common.hpp"
#include "expected.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace sesp;

struct Walk {
  std::string label;
  ProblemSpec spec;
  TimingConstraints constraints;
  std::shared_ptr<const MpmAlgorithmFactory> factory;
  std::vector<Duration> gaps;
  std::vector<Duration> delays;
};

std::vector<Walk> make_walks() {
  const auto step_count =
      std::make_shared<const SemiSyncMpmFactory>(SemiSyncStrategy::kStepCount);
  const auto communicate = std::make_shared<const SemiSyncMpmFactory>(
      SemiSyncStrategy::kCommunicate);
  const auto sporadic = std::make_shared<const SporadicMpmFactory>();
  const auto async = std::make_shared<const AsyncMpmFactory>();
  std::vector<Walk> walks;
  const auto walk = [&](std::string label, ProblemSpec spec,
                        TimingConstraints constraints,
                        std::shared_ptr<const MpmAlgorithmFactory> factory,
                        std::vector<Duration> gaps,
                        std::vector<Duration> delays) {
    walks.push_back(Walk{std::move(label), spec, std::move(constraints),
                         std::move(factory), std::move(gaps),
                         std::move(delays)});
  };
  const Duration one(1), two(2), three(3);
  for (const std::int64_t c2 : {2, 3, 4}) {
    walk("semisync-steps n=2 s=2 c2=" + std::to_string(c2), {2, 2, 2},
         TimingConstraints::semi_synchronous(one, Duration(c2), one),
         step_count, {one, Duration(c2)}, {one});
  }
  walk("semisync-steps n=2 s=3 c2=2", {3, 2, 2},
       TimingConstraints::semi_synchronous(one, two, one), step_count,
       {one, two}, {one});
  walk("semisync-steps n=3 s=2 c2=2", {2, 3, 2},
       TimingConstraints::semi_synchronous(one, two, one), step_count,
       {one, two}, {one});
  walk("semisync-comm n=2 s=2 d2=2", {2, 2, 2},
       TimingConstraints::semi_synchronous(one, two, two), communicate,
       {one, two}, {Duration(0), two});
  for (const std::int64_t d2 : {2, 3}) {
    walk("sporadic n=2 s=2 d2=" + std::to_string(d2), {2, 2, 2},
         TimingConstraints::sporadic(one, one, Duration(d2)), sporadic,
         {one, Duration(5)}, {Duration(d2)});
  }
  walk("sporadic n=2 s=2 gaps=1,3,5", {2, 2, 2},
       TimingConstraints::sporadic(one, one, two), sporadic,
       {one, three, Duration(5)}, {two});
  walk("sporadic n=3 s=2 d2=2", {2, 3, 2},
       TimingConstraints::sporadic(one, one, two), sporadic,
       {one, Duration(5)}, {two});
  walk("sporadic n=2 s=3 d2=3", {3, 2, 2},
       TimingConstraints::sporadic(one, one, three), sporadic,
       {one, Duration(5)}, {three});
  walk("async n=2 s=2 c2=2 d2=2", {2, 2, 2},
       TimingConstraints::asynchronous(two, two), async, {one, two},
       {Duration(0), two});
  walk("async n=3 s=2 c2=2 d2=2", {2, 3, 2},
       TimingConstraints::asynchronous(two, two), async, {one, two}, {two});
  return walks;
}

}  // namespace

WorkloadResult run_exhaustive_walks(const Options& options) {
  WorkloadResult result;
  obs::MetricsRegistry registry;
  obs::Observer metrics_only(&registry);
  obs::Observer* const saved = obs::set_default_observer(&metrics_only);

  const std::vector<Walk> walks = make_walks();
  start_pool(options.jobs);
  if (options.setup_probe) {
    obs::set_default_observer(saved);
    return result;
  }
  SetupTimes setup([&] { setup_probe(options, result); });
  for (int i = 0; i < kSetupProbes; ++i) setup();
  std::vector<std::size_t> order = seeded_order(walks.size(), options.seed);
  if (options.tiny) order.resize(3);

  if (options.record_expected) {
    for (const Walk& w : walks) {
      const auto t0 = Clock::now();
      const ExhaustiveResult r = explore_mpm(w.spec, w.constraints, *w.factory,
                                             w.gaps, w.delays);
      std::cout << "    {" << r.runs << ", \"" << r.max_termination.to_string()
                << "\"},  // " << w.label << ": "
                << seconds_between(t0, Clock::now()) * 1e3 << " ms"
                << (r.complete && r.all_solved ? "" : " FAILED") << "\n";
    }
  }
  if (std::size(expected::kExhaustive) != walks.size()) {
    result.fail("expected.hpp records " +
                std::to_string(std::size(expected::kExhaustive)) +
                " walks, the pool has " + std::to_string(walks.size()));
    obs::set_default_observer(saved);
    return result;
  }

  const auto run_walk = [&](std::size_t index, std::int64_t serial) {
    const Walk& w = walks[index];
    const expected::ExhaustiveWalk& want = expected::kExhaustive[index];
    const std::int64_t steps0 = counter(registry, "sim.steps");
    const ExhaustiveResult r =
        explore_mpm(w.spec, w.constraints, *w.factory, w.gaps, w.delays);
    UnitSample s;
    s.steps = counter(registry, "sim.steps") - steps0;
    s.runs = r.runs;
    const bool planted = options.plant_wrong_expectation && serial == 0;
    if (!r.complete || !r.all_solved || !r.all_admissible ||
        r.runs != want.runs ||
        r.max_termination.to_string() != want.max_termination || planted) {
      s.ok = false;
      s.error = w.label + ": complete " + std::to_string(r.complete) +
                ", solved " + std::to_string(r.all_solved) + ", runs " +
                std::to_string(r.runs) + ", worst " +
                r.max_termination.to_string() + " (recorded " +
                std::to_string(want.runs) + " runs, worst " +
                want.max_termination + ")";
    }
    return s;
  };

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const LoopResult plain =
      run_loop(order, untraced_s, 1, nullptr, run_walk, setup);
  if (!options.trace) {
    batch_end_to_end(plain, setup, result);
    obs::set_default_observer(saved);
    return result;
  }

  SpanStore store;
  const std::int64_t attempts0 = counter(registry, "adversary.exhaustive.runs");
  const LoopResult traced = run_loop(
      order, options.seconds / 2, 1, &store,
      [&](std::size_t index, std::int64_t serial) {
        return traced_unit(store, registry, &metrics_only, "exhaustive.walk",
                           serial, [&] { return run_walk(index, serial); });
      });
  const std::int64_t attempts =
      counter(registry, "adversary.exhaustive.runs") - attempts0;
  obs::set_default_observer(saved);

  const SelfTimeTable table =
      self_time_table(store, traced.window_start_ns, traced.window_end_ns);
  batch_trace_common(plain, traced, table, result);
  finish_trace(store, table, options, result);

  std::int64_t schedules = 0, steps = 0;
  double walk_ms = 0;
  for (const UnitSample& s : traced.samples) {
    schedules += s.runs;
    steps += s.steps;
    walk_ms += s.ms;
  }
  const auto per = [](double num, std::int64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  const double sim_ns = table.total_s("mpm.run") * 1e9;
  const double verify_ns = table.total_s("verify.run") * 1e9;
  const std::int64_t sim_runs = table.count("mpm.run");
  auto& m = result.per_layer;
  m["exhaustive.schedules"] = {static_cast<double>(schedules), "count"};
  m["exhaustive.ns_per_schedule"] = {per(walk_ms * 1e6, schedules), "ns"};
  m["exhaustive.steps_per_schedule"] = {per(static_cast<double>(steps),
                                            schedules),
                                        "steps"};
  m["exhaustive.attempts_per_schedule"] = {
      per(static_cast<double>(attempts), schedules), "ratio"};
  m["mpm.runs"] = {static_cast<double>(sim_runs), "count"};
  m["mpm.steps"] = {static_cast<double>(steps), "count"};
  m["mpm.ns_per_step"] = {per(sim_ns, steps), "ns"};
  m["mpm.ns_per_run"] = {per(sim_ns, sim_runs), "ns"};
  m["verify.calls"] = {static_cast<double>(table.count("verify.run")),
                       "count"};
  m["verify.ns_per_step"] = {per(verify_ns, steps), "ns"};
  m["verify.share"] = {sim_ns + verify_ns > 0
                           ? verify_ns / (sim_ns + verify_ns)
                           : 0.0,
                       "ratio"};
  return result;
}

}  // namespace perfbench
