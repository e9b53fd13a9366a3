#include "common.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <thread>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

extern char** environ;

namespace perfbench {

void WorkloadResult::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

std::int64_t beyond(const std::vector<double>& values, double q) {
  const double cut = percentile(values, q);
  return std::count_if(values.begin(), values.end(),
                       [cut](double v) { return v > cut; });
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t state = mix64(seed);
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SetupTimes::operator()() {
  const auto t0 = Clock::now();
  setup();
  seconds.push_back(seconds_between(t0, Clock::now()));
}

void setup_probe(const Options& options, WorkloadResult& result) {
  std::vector<std::string> args = {"/proc/self/exe",
                                   "--workload",
                                   options.workload,
                                   "--seed",
                                   std::to_string(options.seed),
                                   "--seconds",
                                   "1",
                                   "--trace",
                                   "0",
                                   "--setup-probe"};
  if (options.tiny) args.push_back("--tiny");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int spawned =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  int status = 0;
  if (spawned == 0) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    result.fail("set-up probe failed");
}

void start_pool(int jobs) {
  // Every task waits until all have started, so no thread can run two.
  std::atomic<int> started{0};
  sesp::exec::parallel_for_each(
      static_cast<std::size_t>(jobs),
      [&](std::size_t) {
        started.fetch_add(1);
        const auto give_up = Clock::now() + std::chrono::seconds(2);
        while (started.load() < jobs && Clock::now() < give_up)
          std::this_thread::yield();
      },
      jobs);
}

std::int64_t counter(const sesp::obs::MetricsRegistry& registry,
                     const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second.value();
}

LoopResult run_loop(const std::vector<std::size_t>& order, double seconds,
                    std::size_t min_units, const SpanStore* store,
                    const std::function<UnitSample(std::size_t, std::int64_t)>&
                        run_unit,
                    const std::function<void()>& on_pass) {
  LoopResult r;
  const auto t0 = Clock::now();
  r.window_start_ns = store ? store->to_ns(t0) : 0;
  std::size_t next = 0;
  for (std::int64_t serial = 0;; ++serial) {
    if (serial > 0 && next == 0 && on_pass) on_pass();
    const auto a = Clock::now();
    if (static_cast<std::size_t>(serial) >= min_units &&
        (seconds_between(t0, a) >= seconds ||
         (store && store->size() >= kMaxSpans)))
      break;
    const std::size_t index = order[next];
    next = (next + 1) % order.size();
    UnitSample s = run_unit(index, serial);
    s.ms = seconds_between(a, Clock::now()) * 1e3;
    s.unit = static_cast<std::int64_t>(index);
    r.samples.push_back(std::move(s));
  }
  const auto t1 = Clock::now();
  r.wall_s = seconds_between(t0, t1);
  r.window_end_ns = store ? store->to_ns(t1) : 0;
  return r;
}

namespace {

void check_samples(const LoopResult& loop, WorkloadResult& result) {
  for (const UnitSample& s : loop.samples) {
    ++result.attempted;
    if (!s.ok) result.fail("unit " + std::to_string(s.unit) + ": " + s.error);
  }
}

}  // namespace

void batch_end_to_end(const LoopResult& loop, const SetupTimes& setup,
                      WorkloadResult& result) {
  check_samples(loop, result);
  std::vector<double> ms;
  std::int64_t steps = 0, runs = 0;
  // Rates come from each pool unit's median time: the host's speed drifts
  // by tens of percent over seconds, and a unit's median over its repeats
  // ignores the slow (or fast) stretches a plain total would average in.
  struct PerUnit {
    std::vector<double> ms;
    std::int64_t steps = 0, runs = 0;
  };
  std::map<std::int64_t, PerUnit> per_unit;
  for (const UnitSample& s : loop.samples) {
    ms.push_back(s.ms);
    steps += s.steps;
    runs += s.runs;
    PerUnit& u = per_unit[s.unit];
    u.ms.push_back(s.ms);
    u.steps = s.steps;
    u.runs = s.runs;
  }
  double pass_s = 0, pass_steps = 0, pass_runs = 0;
  for (const auto& [unit, u] : per_unit) {
    pass_s += median(u.ms) * 1e-3;
    pass_steps += static_cast<double>(u.steps);
    pass_runs += static_cast<double>(u.runs);
  }
  if (pass_s <= 0) pass_s = 1e-9;
  // The percentiles likewise: every sample stands for its unit's median
  // time, so they give the spread of cost across the unit pool, not a tail
  // (an occasional slow repeat of a unit does not move them). The tail of
  // the samples' own times is printed, not gated: the median over
  // kTailWindows consecutive windows of each window's p99 spread by 22-30%
  // between seeds on a shared 4-vCPU Xeon host, past the largest allowed
  // bound.
  std::vector<double> typical;
  for (const UnitSample& s : loop.samples)
    typical.push_back(median(per_unit[s.unit].ms));
  constexpr std::size_t kTailWindows = 5;
  std::vector<double> window_p99;
  std::int64_t beyond_p99 = 0;
  const std::size_t per_window =
      std::max<std::size_t>(1, ms.size() / kTailWindows);
  for (std::size_t w = 0; w + per_window <= ms.size(); w += per_window) {
    const std::vector<double> window(ms.begin() + w,
                                     ms.begin() + w + per_window);
    window_p99.push_back(percentile(window, 0.99));
    beyond_p99 += beyond(window, 0.99);
  }

  auto& m = result.end_to_end;
  m["setup_s"] = {median(setup.seconds), "s"};
  m["steps_per_s"] = {pass_steps / pass_s, "1/s"};
  m["runs_per_s"] = {pass_runs / pass_s, "1/s"};
  m["units_per_s"] = {static_cast<double>(per_unit.size()) / pass_s, "1/s"};
  m["unit_ms_p50"] = {percentile(typical, 0.50), "ms"};
  m["unit_ms_p90"] = {percentile(typical, 0.90), "ms"};
  m["unit_ms_p99"] = {percentile(typical, 0.99), "ms"};

  std::ostringstream os;
  os << "set-up probes " << setup.seconds.size() << ": median "
     << median(setup.seconds) << " s, min " << percentile(setup.seconds, 0)
     << " s, max " << percentile(setup.seconds, 1) << " s\n";
  os << "units " << ms.size() << " (" << per_unit.size() << " distinct) in "
     << loop.wall_s << " s; steps " << steps << ", runs " << runs
     << "; samples beyond p90 " << beyond(typical, 0.90) << ", beyond p99 "
     << beyond(typical, 0.99) << "; raw p50/p90/p99 " << percentile(ms, 0.5)
     << " / " << percentile(ms, 0.9) << " / " << percentile(ms, 0.99)
     << " ms; tail p99 (median of " << window_p99.size() << " windows, "
     << beyond_p99 << " samples beyond) " << median(window_p99) << " ms\n";
  result.report += os.str();
}

void batch_trace_common(const LoopResult& untraced, const LoopResult& traced,
                        const SelfTimeTable& table, WorkloadResult& result) {
  check_samples(untraced, result);
  check_samples(traced, result);
  const std::size_t common =
      std::min(untraced.samples.size(), traced.samples.size());
  double plain = 0, with_spans = 0;
  for (std::size_t i = 0; i < common; ++i) {
    plain += untraced.samples[i].ms;
    with_spans += traced.samples[i].ms;
  }
  auto& m = result.per_layer;
  m["obs.trace_overhead"] = {plain > 0 ? with_spans / plain - 1.0 : 0.0,
                             "ratio"};
  m["trace.unattributed_share"] = {
      table.wall_s > 0 ? table.unattributed_s / table.wall_s : 0.0, "ratio"};
  std::ostringstream os;
  os << "trace overhead over the first " << common
     << " units: untraced " << plain << " ms, traced " << with_spans
     << " ms\n";
  result.report += os.str();
}

UnitSample traced_unit(SpanStore& store, sesp::obs::MetricsRegistry& registry,
                       sesp::obs::Observer* untraced, const std::string& name,
                       std::int64_t serial,
                       const std::function<UnitSample()>& body) {
  sesp::obs::TraceSink sink;
  sesp::obs::Observer observer(&registry, &sink);
  const std::int64_t offset = store.now_ns() - sink.now_ns();
  sesp::obs::set_default_observer(&observer);
  const std::int64_t span = store.open(name, -1, serial);
  UnitSample s = body();
  store.close(span);
  sesp::obs::set_default_observer(untraced);
  // The import is the tracer's own cost; its span keeps it out of the
  // unattributed row.
  const std::int64_t import_start = store.now_ns();
  store.import(sink, offset, span, serial);
  store.add("trace.import", import_start, store.now_ns(), -1, serial);
  return s;
}

void finish_trace(const SpanStore& store, const SelfTimeTable& table,
                  const Options& options, WorkloadResult& result) {
  result.report += format_table(options.workload, table);
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/spans-" +
                           options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  // Large walks record millions of spans; the file keeps the first ones.
  std::size_t omitted = 0;
  if (store.write_jsonl(path, options.workload, 200'000, &omitted)) {
    result.report += "spans written to " + path + " (" +
                     std::to_string(omitted) + " not written)\n";
  }
}

}  // namespace perfbench
