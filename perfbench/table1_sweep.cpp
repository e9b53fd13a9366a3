// table1-sweep: a closed batch over every Table-1 cell. One unit is one
// cell's worst-case sweep (mpm_worst_case / smm_worst_case over the
// model's canonical adversary family), or, for the minority of diameter
// cells, one run_p2p_once over a ring or tree. Every cell must be
// admissible and solved with the measured worst case within the
// instantiated upper bound U of analysis/bounds.

#include <memory>
#include <optional>
#include <sstream>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/p2p/knowledge_algs.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"
#include "analysis/bounds.hpp"
#include "common.hpp"
#include "mpm/topology.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace perfbench {
namespace {

using namespace sesp;

enum class Side { kMp, kSm, kP2p };
enum class BoundKind { kTime, kRounds, kSporadic, kSolvedOnly };

struct Cell {
  std::string label;
  Side side = Side::kMp;
  ProblemSpec spec;
  TimingConstraints constraints;
  std::shared_ptr<const MpmAlgorithmFactory> mpm;
  std::shared_ptr<const SmmAlgorithmFactory> smm;
  std::shared_ptr<const P2pAlgorithmFactory> p2p;
  std::optional<Topology> topology;
  BoundKind bound = BoundKind::kTime;
  Ratio upper = 0;
  std::int64_t upper_rounds = 0;
  std::uint64_t seed = 0;  // random adversaries / random delays
};

constexpr std::int32_t kRandomRuns = 3;

std::vector<Duration> spread_periods(std::int32_t count, Duration cmin,
                                     Duration cmax) {
  // Process 0 is the slowest; the rest interpolate between cmin and cmax.
  std::vector<Duration> periods(static_cast<std::size_t>(count), cmin);
  periods[0] = cmax;
  for (std::int32_t i = 1; i < count; ++i)
    periods[static_cast<std::size_t>(i)] =
        cmin + (cmax - cmin) * Ratio(i % 4, 8);
  return periods;
}

std::string tag(const char* model, const char* side, const ProblemSpec& spec) {
  std::ostringstream os;
  os << model << ' ' << side << " s=" << spec.s << " n=" << spec.n
     << " b=" << spec.b;
  return os.str();
}

Cell make_cell(std::string label, Side side, ProblemSpec spec,
               TimingConstraints constraints) {
  Cell c;
  c.label = std::move(label);
  c.side = side;
  c.spec = spec;
  c.constraints = std::move(constraints);
  return c;
}

// The cell grid is fixed; the seed draws every cell's random adversaries
// and delays, so seeds differ in schedules, not in the mix of work.
std::vector<Cell> make_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  const auto add = [&](Cell c) {
    c.seed = mix64(seed ^ mix64(cells.size() + 1));
    cells.push_back(std::move(c));
  };
  const auto sync_mpm = std::make_shared<const SyncMpmFactory>();
  const auto sync_smm = std::make_shared<const SyncSmmFactory>();
  const auto periodic_mpm = std::make_shared<const PeriodicMpmFactory>();
  const auto periodic_smm = std::make_shared<const PeriodicSmmFactory>();
  const auto semisync_mpm = std::make_shared<const SemiSyncMpmFactory>();
  const auto semisync_smm = std::make_shared<const SemiSyncSmmFactory>();
  const auto sporadic_mpm = std::make_shared<const SporadicMpmFactory>();
  const auto async_mpm = std::make_shared<const AsyncMpmFactory>();
  const auto async_smm = std::make_shared<const AsyncSmmFactory>();
  const auto rounds_p2p = std::make_shared<const P2pRoundsFactory>();

  for (const std::int64_t s : {2, 4, 8}) {
    for (const std::int32_t n : {4, 16, 64}) {
      {
        const ProblemSpec spec{s, n, 2};
        const Duration c2(3, 2);
        Cell mp = make_cell(tag("sync", "MP", spec), Side::kMp, spec,
                            TimingConstraints::synchronous(c2, Duration(4)));
        mp.mpm = sync_mpm;
        mp.upper = bounds::sync_tight(spec, c2);
        add(std::move(mp));
        Cell sm = make_cell(tag("sync", "SM", spec), Side::kSm, spec,
                            TimingConstraints::synchronous(c2));
        sm.smm = sync_smm;
        sm.upper = bounds::sync_tight(spec, c2);
        add(std::move(sm));
      }
      for (const std::int64_t d2v : {1, 10, 100}) {
        const ProblemSpec spec{s, n, 2};
        const Duration cmax(3), d2(d2v);
        Cell c = make_cell(
            tag("periodic", "MP", spec) + " d2=" + std::to_string(d2v),
            Side::kMp, spec,
            TimingConstraints::periodic(spread_periods(n, Duration(1), cmax),
                                        d2));
        c.mpm = periodic_mpm;
        c.upper = bounds::periodic_mp_upper(spec, cmax, d2);
        add(std::move(c));
      }
      for (const std::int32_t b : {2, 4}) {
        const ProblemSpec spec{s, n, b};
        const Duration cmin(1), cmax(3);
        Cell c = make_cell(
            tag("periodic", "SM", spec), Side::kSm, spec,
            TimingConstraints::periodic(
                spread_periods(smm_total_processes(n, b), cmin, cmax)));
        c.smm = periodic_smm;
        c.upper = bounds::periodic_sm_upper(spec, cmax,
                                            smm_tree_latency_steps(n, b));
        add(std::move(c));
      }
      for (const std::int64_t ratio : {2, 32}) {
        for (const std::int64_t d2v : {1, 400}) {
          const ProblemSpec spec{s, n, 2};
          const Duration c1(1), c2(ratio), d2(d2v);
          Cell c = make_cell(tag("semisync", "MP", spec) + " c2/c1=" +
                                 std::to_string(ratio) +
                                 " d2=" + std::to_string(d2v),
                             Side::kMp, spec,
                             TimingConstraints::semi_synchronous(c1, c2, d2));
          c.mpm = semisync_mpm;
          c.upper = bounds::semisync_mp_upper(spec, c1, c2, d2);
          add(std::move(c));
        }
      }
      for (const std::int64_t ratio : {2, 8, 32, 128}) {
        const ProblemSpec spec{s, n, 2};
        const Duration c1(1), c2(ratio);
        Cell c = make_cell(
            tag("semisync", "SM", spec) + " c2/c1=" + std::to_string(ratio),
            Side::kSm, spec, TimingConstraints::semi_synchronous(c1, c2));
        c.smm = semisync_smm;
        c.upper = bounds::semisync_sm_upper(spec, c1, c2,
                                            smm_tree_latency_steps(n, 2));
        add(std::move(c));
      }
      for (const std::int64_t d1v : {24, 12, 0}) {
        const ProblemSpec spec{s, n, 2};
        Cell c = make_cell(
            tag("sporadic", "MP", spec) + " d1=" + std::to_string(d1v),
            Side::kMp, spec,
            TimingConstraints::sporadic(Duration(1), Duration(d1v),
                                        Duration(24)));
        c.mpm = sporadic_mpm;
        c.bound = BoundKind::kSporadic;
        add(std::move(c));
      }
      {
        // Sporadic shared memory is asynchronous shared memory (Table 1,
        // row 4 is MP-only): the knowledge-round algorithm, in rounds.
        const ProblemSpec spec{s, n, 2};
        Cell c = make_cell(tag("sporadic", "SM", spec), Side::kSm, spec,
                           TimingConstraints::sporadic(Duration(1), Duration(0),
                                                       Duration(1)));
        c.smm = async_smm;
        c.bound = BoundKind::kRounds;
        c.upper_rounds = bounds::async_sm_upper_rounds(
            spec, smm_tree_latency_steps(n, 2));
        add(std::move(c));
      }
      {
        const ProblemSpec spec{s, n, 2};
        const Duration c2(2), d2(9);
        Cell c = make_cell(tag("async", "MP", spec), Side::kMp, spec,
                           TimingConstraints::asynchronous(c2, d2));
        c.mpm = async_mpm;
        c.upper = bounds::async_mp_upper(spec, c2, d2);
        add(std::move(c));
      }
      for (const std::int32_t b : {2, 4}) {
        const ProblemSpec spec{s, n, b};
        Cell c = make_cell(tag("async", "SM", spec), Side::kSm, spec,
                           TimingConstraints::asynchronous());
        c.smm = async_smm;
        c.bound = BoundKind::kRounds;
        c.upper_rounds = bounds::async_sm_upper_rounds(
            spec, smm_tree_latency_steps(n, b));
        add(std::move(c));
      }
    }
  }
  // Diameter cells of the point-to-point model: rounds algorithm over a
  // ring or a binary tree, one run each.
  for (const std::int64_t s : {2, 4, 8}) {
    for (const std::int32_t n : {8, 16, 32}) {
      for (const bool ring : {true, false}) {
        const ProblemSpec spec{s, n, 2};
        Cell c = make_cell(std::string(ring ? "p2p ring" : "p2p tree") +
                               " s=" + std::to_string(s) +
                               " n=" + std::to_string(n),
                           Side::kP2p, spec,
                           TimingConstraints::asynchronous(Duration(1),
                                                           Duration(4)));
        c.p2p = rounds_p2p;
        c.topology = ring ? Topology::ring(n) : Topology::tree(n, 2);
        c.bound = BoundKind::kSolvedOnly;
        add(std::move(c));
      }
    }
  }
  return cells;
}

// One cell; fills ok/error/runs. Steps come from the observer counters.
UnitSample run_cell(const Cell& c, bool plant_wrong_bound) {
  UnitSample s;
  if (c.side == Side::kP2p) {
    FixedPeriodScheduler sched(c.spec.n, c.constraints.c2);
    UniformRandomDelay delay(Duration(0), c.constraints.d2, c.seed);
    const P2pOutcome out = run_p2p_once(c.spec, c.constraints, *c.topology,
                                        *c.p2p, sched, delay);
    s.runs = 1;
    s.ok = out.run.completed && !out.run.hit_limit &&
           out.verdict.admissible && out.verdict.solves;
    if (!s.ok) s.error = c.label + ": p2p run not admissible and solved";
    return s;
  }
  const WorstCase wc =
      c.side == Side::kMp
          ? mpm_worst_case(c.spec, c.constraints, *c.mpm, kRandomRuns, c.seed)
          : smm_worst_case(c.spec, c.constraints, *c.smm, kRandomRuns,
                           c.seed);
  s.runs = wc.runs;
  if (wc.runs == 0 || !wc.all_admissible || !wc.all_solved ||
      wc.any_hit_limit) {
    s.ok = false;
    s.error = c.label + ": " +
              (wc.first_failure.empty() ? wc.first_limit_hit
                                        : wc.first_failure);
    return s;
  }
  bool within = true;
  switch (c.bound) {
    case BoundKind::kTime:
      within = wc.max_termination <= c.upper;
      break;
    case BoundKind::kRounds:
      within = wc.max_rounds <= c.upper_rounds;
      break;
    case BoundKind::kSporadic:
      // U is per computation through gamma; the worst observed gamma
      // bounds every run's own U.
      within = wc.max_termination <=
               bounds::sporadic_mp_upper(
                   c.spec, c.constraints.c1, c.constraints.d1,
                   c.constraints.d2,
                   wc.max_gamma.is_zero() ? Duration(1) : wc.max_gamma);
      break;
    case BoundKind::kSolvedOnly:
      break;
  }
  if (plant_wrong_bound) within = false;
  if (!within) {
    s.ok = false;
    s.error = c.label + ": measured worst case exceeds U";
  }
  return s;
}

}  // namespace

WorkloadResult run_table1_sweep(const Options& options) {
  WorkloadResult result;
  obs::MetricsRegistry registry;
  obs::Observer metrics_only(&registry);
  obs::Observer* const saved = obs::set_default_observer(&metrics_only);

  const std::vector<Cell> cells = make_cells(options.seed);
  start_pool(options.jobs);
  if (options.setup_probe) {
    obs::set_default_observer(saved);
    return result;
  }
  SetupTimes setup([&] { setup_probe(options, result); });
  for (int i = 0; i < kSetupProbes; ++i) setup();
  std::vector<std::size_t> order = seeded_order(cells.size(), options.seed);
  if (options.tiny) order.resize(12);

  SpanStore store;
  const auto unit = [&](bool traced) {
    return [&, traced](std::size_t index, std::int64_t serial) {
      const Cell& c = cells[index];
      const bool plant = options.plant_wrong_expectation && serial == 0;
      const std::int64_t steps0 = counter(registry, "sim.steps");
      UnitSample s;
      if (!traced) {
        s = run_cell(c, plant);
      } else {
        s = traced_unit(store, registry, &metrics_only, "experiment.cell",
                        serial, [&] { return run_cell(c, plant); });
      }
      s.steps = counter(registry, "sim.steps") - steps0;
      return s;
    };
  };

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const LoopResult plain =
      run_loop(order, untraced_s, 1, nullptr, unit(false), setup);
  if (!options.trace) {
    batch_end_to_end(plain, setup, result);
    obs::set_default_observer(saved);
    return result;
  }

  const std::int64_t verify0 = counter(registry, "verify.runs");
  const LoopResult traced =
      run_loop(order, options.seconds / 2, 1, &store, unit(true));
  const std::int64_t verify_calls = counter(registry, "verify.runs") - verify0;
  obs::set_default_observer(saved);

  const SelfTimeTable table =
      self_time_table(store, traced.window_start_ns, traced.window_end_ns);
  batch_trace_common(plain, traced, table, result);
  finish_trace(store, table, options, result);

  // Per-unit layer busy time from the span store.
  struct UnitBusy {
    double sim_ns = 0, verify_ns = 0, task_ns = 0;
    std::int64_t tasks = 0;
  };
  std::map<std::int64_t, UnitBusy> busy;
  {
    const std::vector<SpanRecord> spans = store.spans();
    const std::vector<std::string> names = store.names();
    for (const SpanRecord& sp : spans) {
      if (sp.unit < 0 || sp.end_ns < 0) continue;
      const std::string& name = names[static_cast<std::size_t>(sp.name)];
      const double ns = static_cast<double>(sp.end_ns - sp.start_ns);
      UnitBusy& u = busy[sp.unit];
      if (name == "mpm.run" || name == "smm.run" || name == "p2p.run") {
        u.sim_ns += ns;
      } else if (name == "verify.run") {
        u.verify_ns += ns;
      } else if (name == "adversary.mpm_worst_case" ||
                 name == "adversary.smm_worst_case") {
        u.task_ns += ns;
        ++u.tasks;
      }
    }
  }
  double mpm_ns = 0, smm_ns = 0, p2p_ns = 0, verify_ns = 0, task_ns = 0;
  double smm4_ns = 0, smm64_ns = 0, sweep_ms = 0;
  std::int64_t mpm_runs = 0, mpm_steps = 0, smm_steps = 0, p2p_steps = 0;
  std::int64_t smm4_steps = 0, smm64_steps = 0, tasks = 0;
  for (std::size_t i = 0; i < traced.samples.size(); ++i) {
    const UnitSample& s = traced.samples[i];
    const Cell& c = cells[static_cast<std::size_t>(s.unit)];
    const UnitBusy& u = busy[static_cast<std::int64_t>(i)];
    verify_ns += u.verify_ns;
    task_ns += u.task_ns;
    tasks += u.tasks;
    if (c.side != Side::kP2p) sweep_ms += s.ms;
    switch (c.side) {
      case Side::kMp:
        mpm_ns += u.sim_ns;
        mpm_runs += s.runs;
        mpm_steps += s.steps;
        break;
      case Side::kSm:
        smm_ns += u.sim_ns;
        smm_steps += s.steps;
        if (c.spec.n == 4) {
          smm4_ns += u.sim_ns;
          smm4_steps += s.steps;
        } else if (c.spec.n == 64) {
          smm64_ns += u.sim_ns;
          smm64_steps += s.steps;
        }
        break;
      case Side::kP2p:
        p2p_ns += u.sim_ns;
        p2p_steps += s.steps;
        break;
    }
  }
  const auto per = [](double num, std::int64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  const std::int64_t all_steps = mpm_steps + smm_steps + p2p_steps;
  const double sim_ns = mpm_ns + smm_ns + p2p_ns;
  const double capacity_ns = options.jobs * sweep_ms * 1e6;
  auto& m = result.per_layer;
  m["mpm.runs"] = {static_cast<double>(mpm_runs), "count"};
  m["mpm.steps"] = {static_cast<double>(mpm_steps), "count"};
  m["mpm.ns_per_step"] = {per(mpm_ns, mpm_steps), "ns"};
  m["mpm.ns_per_run"] = {per(mpm_ns, mpm_runs), "ns"};
  m["smm.steps"] = {static_cast<double>(smm_steps), "count"};
  m["smm.ns_per_step.n4"] = {per(smm4_ns, smm4_steps), "ns"};
  m["smm.ns_per_step.n64"] = {per(smm64_ns, smm64_steps), "ns"};
  m["p2p.steps"] = {static_cast<double>(p2p_steps), "count"};
  m["p2p.ns_per_step"] = {per(p2p_ns, p2p_steps), "ns"};
  m["verify.calls"] = {static_cast<double>(verify_calls), "count"};
  m["verify.ns_per_step"] = {per(verify_ns, all_steps), "ns"};
  m["verify.share"] = {sim_ns + verify_ns > 0
                           ? verify_ns / (sim_ns + verify_ns)
                           : 0.0,
                       "ratio"};
  m["experiment.cells"] = {static_cast<double>(traced.samples.size()),
                           "count"};
  m["experiment.self_ms"] = {table.self_s("experiment.cell") * 1e3, "ms"};
  m["exec.tasks"] = {static_cast<double>(tasks), "count"};
  m["exec.utilization"] = {capacity_ns > 0 ? task_ns / capacity_ns : 0.0,
                           "ratio"};
  m["exec.idle_s"] = {std::max(0.0, capacity_ns - task_ns) * 1e-9, "s"};
  return result;
}

}  // namespace perfbench
