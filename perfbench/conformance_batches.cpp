// conformance: closed batches of run_conformance over all ten
// model x substrate cells. One unit is one batch (a fixed number of seeded
// cases per cell, judged by the full oracle stack). The batches cycle
// through a fixed pool of base seeds whose report digests are recorded in
// expected.hpp; a batch passes only with zero oracle failures and its
// recorded digest.
//
// The traced run judges the same cases through the library's public
// per-case entry points on the exec pool (generate_case, check_case). After
// the traced batches, and outside their unit times, an oracle sample times
// check_case, run_case and each oracle's building block (replay,
// admissibility, reference checkers, retimers) on the cases of a few
// batches, to attribute check_case time to them.

#include <iostream>

#include "adversary/semisync_retimer.hpp"
#include "adversary/sporadic_retimer.hpp"
#include "common.hpp"
#include "conformance/harness.hpp"
#include "conformance/reference.hpp"
#include "exec/thread_pool.hpp"
#include "expected.hpp"
#include "sim/replay.hpp"
#include "timing/admissibility.hpp"

namespace perfbench {
namespace {

using namespace sesp;
using namespace sesp::conformance;

std::uint64_t pool_seed(std::size_t k) { return 1000 + k; }

ConformanceConfig batch_config(std::uint64_t base_seed, int jobs) {
  ConformanceConfig config;
  config.seed = base_seed;
  config.cases_per_cell = expected::kConformanceCasesPerCell;
  config.jobs = jobs;
  return config;
}

// The case of `index` in the batch of `base_seed`, as run_conformance
// generates it.
CaseDescriptor batch_case(std::uint64_t base_seed, std::size_t index) {
  const std::vector<TimingModel>& models = all_models();
  const std::vector<Substrate>& substrates = all_substrates();
  const auto per_cell =
      static_cast<std::size_t>(expected::kConformanceCasesPerCell);
  const std::size_t cell = index / per_cell;
  return generate_case(models[cell / substrates.size()],
                       substrates[cell % substrates.size()],
                       case_seed(base_seed, cell, index % per_cell));
}

std::size_t batch_size() {
  return all_models().size() * all_substrates().size() *
         static_cast<std::size_t>(expected::kConformanceCasesPerCell);
}

// check_case and the oracle building blocks it runs, timed one by one.
void time_oracles(const CaseDescriptor& c, SpanStore* store,
                  std::int64_t parent, std::int64_t unit) {
  {
    ScopedSpan span(store, "oracle.check_case", parent, unit);
    check_case(c, OracleOptions{});
  }
  std::optional<TimedComputation> trace;
  {
    ScopedSpan span(store, "conformance.run_case", parent, unit);
    GeneratedRun run = run_case(c);
    if (run.ok) trace = std::move(run.trace);
  }
  if (!trace) return;
  const std::string alg = resolved_algorithm(c);
  {
    ScopedSpan span(store, "oracle.replay", parent, unit);
    if (c.substrate == Substrate::kSharedMemory) {
      replay_smm(*trace, c.spec, c.constraints, *make_smm_factory(alg));
    } else {
      replay_mpm(*trace, c.spec, c.constraints, *make_mpm_factory(alg));
    }
  }
  {
    ScopedSpan span(store, "oracle.admissibility", parent, unit);
    check_admissible(*trace, c.constraints);
  }
  {
    ScopedSpan span(store, "oracle.reference", parent, unit);
    reference_count_sessions(*trace);
    reference_check_admissible(*trace, c.constraints);
  }
  // The same gating as the retimer oracle.
  if (c.substrate == Substrate::kSharedMemory &&
      c.model == TimingModel::kSemiSynchronous && c.schedule == 1) {
    ScopedSpan span(store, "oracle.retimer", parent, unit);
    semisync_retime(*trace, c.spec, c.constraints);
  } else if (c.substrate == Substrate::kMessagePassing &&
             c.model == TimingModel::kSporadic && c.seed % 4 == 0) {
    ScopedSpan span(store, "oracle.retimer", parent, unit);
    attack_sporadic_mpm(c.spec, c.constraints, *make_mpm_factory(alg));
  }
}

// One traced batch: the harness's case loop, spanned per call.
UnitSample traced_batch(std::uint64_t base_seed, int jobs, SpanStore& store,
                        std::int64_t batch_span, std::int64_t unit) {
  std::vector<CaseResult> results(batch_size());
  exec::parallel_for_each(
      results.size(),
      [&](std::size_t i) {
        ScopedSpan task(&store, "conformance.case", batch_span, unit);
        CaseDescriptor c;
        {
          ScopedSpan span(&store, "conformance.generate_case", task.id(),
                          unit);
          c = batch_case(base_seed, i);
        }
        {
          ScopedSpan span(&store, "conformance.check_case", task.id(), unit);
          results[i] = check_case(c, OracleOptions{});
        }
      },
      jobs);
  UnitSample s;
  for (const CaseResult& r : results) {
    s.steps += r.steps;
    ++s.runs;
    if (!r.ok() && s.ok) {
      s.ok = false;
      s.error = "base seed " + std::to_string(base_seed) + ": oracle " +
                r.first_oracle() + " failed";
    }
  }
  return s;
}

}  // namespace

WorkloadResult run_conformance_batches(const Options& options) {
  WorkloadResult result;
  const std::size_t pool = std::size(expected::kConformance);

  if (options.record_expected) {
    for (std::size_t k = 0; k < pool; ++k) {
      const ConformanceReport report =
          run_conformance(batch_config(pool_seed(k), options.jobs));
      std::cout << "    {" << pool_seed(k) << ", \"" << report.digest
                << "\"},  // " << report.total_failures << " failures\n";
    }
  }

  std::vector<ConformanceConfig> configs;
  for (std::size_t k = 0; k < pool; ++k)
    configs.push_back(batch_config(pool_seed(k), options.jobs));
  start_pool(options.jobs);
  if (options.setup_probe) return result;
  SetupTimes setup([&] { setup_probe(options, result); });
  for (int i = 0; i < kSetupProbes; ++i) setup();
  std::vector<std::size_t> order = seeded_order(pool, options.seed);
  if (options.tiny) order.resize(4);

  const auto plain_unit = [&](std::size_t k, std::int64_t serial) {
    const ConformanceReport report = run_conformance(configs[k]);
    UnitSample s;
    s.runs = report.total_cases;
    for (const CellReport& cell : report.cells) s.steps += cell.steps_total;
    std::string want = expected::kConformance[k].digest;
    if (options.plant_wrong_expectation && serial == 0)
      want = "0000000000000000";
    if (!report.ok() || report.digest != want) {
      s.ok = false;
      s.error = "base seed " + std::to_string(pool_seed(k)) + ": " +
                std::to_string(report.total_failures) + " failures, digest " +
                report.digest + ", recorded " + want;
    }
    return s;
  };

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const LoopResult plain =
      run_loop(order, untraced_s, 1, nullptr, plain_unit, setup);
  if (!options.trace) {
    batch_end_to_end(plain, setup, result);
    return result;
  }

  SpanStore store;
  const LoopResult traced = run_loop(
      order, options.seconds / 2, 1, &store,
      [&](std::size_t k, std::int64_t serial) {
        const std::int64_t span = store.open("conformance.batch", -1, serial);
        UnitSample s =
            traced_batch(pool_seed(k), options.jobs, store, span, serial);
        store.close(span);
        return s;
      });
  // The oracle sample: the cases of the first few batches, each case's
  // check_case and building blocks under one "oracle.sample" span.
  const std::size_t sample_batches = std::min<std::size_t>(4, order.size());
  const auto sample_unit = static_cast<std::int64_t>(traced.samples.size());
  exec::parallel_for_each(
      sample_batches * batch_size(),
      [&](std::size_t i) {
        ScopedSpan task(&store, "oracle.sample", -1, sample_unit);
        time_oracles(batch_case(pool_seed(order[i / batch_size()]),
                                i % batch_size()),
                     &store, task.id(), sample_unit);
      },
      options.jobs);
  const SelfTimeTable table =
      self_time_table(store, traced.window_start_ns, store.now_ns());
  batch_trace_common(plain, traced, table, result);
  finish_trace(store, table, options, result);

  std::vector<double> check_us;
  {
    const std::vector<SpanRecord> spans = store.spans();
    const std::vector<std::string> names = store.names();
    for (const SpanRecord& sp : spans)
      if (names[static_cast<std::size_t>(sp.name)] == "conformance.check_case")
        check_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) *
                           1e-3);
  }
  double batch_ms = 0;
  for (const UnitSample& s : traced.samples) batch_ms += s.ms;
  const double check_s = table.total_s("oracle.check_case");
  const auto share = [&](const char* name) {
    return check_s > 0 ? table.total_s(name) / check_s : 0.0;
  };
  const double capacity_s = options.jobs * batch_ms * 1e-3;
  const double task_s = table.total_s("conformance.case");
  const std::int64_t generated = table.count("conformance.generate_case");
  auto& m = result.per_layer;
  m["conformance.generate_us"] = {
      generated > 0 ? table.total_s("conformance.generate_case") * 1e6 /
                          static_cast<double>(generated)
                    : 0.0,
      "us"};
  m["conformance.check_us_p50"] = {median(check_us), "us"};
  m["conformance.sim_share"] = {share("conformance.run_case"), "ratio"};
  m["oracle.replay_share"] = {share("oracle.replay"), "ratio"};
  m["oracle.admissibility_share"] = {share("oracle.admissibility"), "ratio"};
  m["oracle.reference_share"] = {share("oracle.reference"), "ratio"};
  m["oracle.retimer_share"] = {share("oracle.retimer"), "ratio"};
  m["exec.tasks"] = {static_cast<double>(table.count("conformance.case")),
                     "count"};
  m["exec.utilization"] = {capacity_s > 0 ? task_s / capacity_s : 0.0,
                           "ratio"};
  m["exec.idle_s"] = {std::max(0.0, capacity_s - task_s), "s"};
  return result;
}

}  // namespace perfbench
