// Tests for the observability layer: metric instrument semantics, span
// nesting, JSON/JSONL round-trips through the in-tree parser, the
// zero-observer no-op contract, bench records (BENCH_*.json) and their
// aggregation, and the BoundReport / Summary JSON mirrors of the rendered
// tables.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "analysis/report.hpp"
#include "exec/jobs.hpp"
#include "obs/bench_record.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"

namespace sesp {
namespace {

// --- metrics ---------------------------------------------------------------

TEST(MetricsTest, CounterIncrements) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(MetricsTest, GaugeTracksHighWaterMark) {
  obs::Gauge g;
  g.set(3);
  g.set(10);
  g.set(4);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.max(), 10);
}

TEST(MetricsTest, HistogramKeepsExactExtremes) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  h.observe(Ratio(7, 2));
  h.observe(Ratio(1, 3));
  h.observe(Ratio(5));
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.min(), Ratio(1, 3));
  EXPECT_EQ(h.max(), Ratio(5));
  EXPECT_NEAR(h.mean(), (3.5 + 1.0 / 3.0 + 5.0) / 3.0, 1e-12);
  std::int64_t total = 0;
  for (const std::int64_t b : h.buckets()) total += b;
  EXPECT_EQ(total, 3);
}

TEST(MetricsTest, RegistryHandlesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("sim.steps");
  reg.counter("zzz.other");  // later insertions must not move `a`
  obs::Counter& b = reg.counter("sim.steps");
  EXPECT_EQ(&a, &b);
  a.inc(5);
  EXPECT_EQ(reg.counters().at("sim.steps").value(), 5);
}

TEST(MetricsTest, JsonlLinesParse) {
  obs::MetricsRegistry reg;
  reg.counter("sim.steps").inc(7);
  reg.gauge("sim.pending.depth").set(3);
  reg.histogram("verify.termination_time").observe(Ratio(9, 2));
  std::ostringstream os;
  reg.write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto v = obs::parse_json(line, &error);
    ASSERT_TRUE(v) << error << " in: " << line;
    ASSERT_TRUE(v->find("metric"));
    ++parsed;
  }
  EXPECT_EQ(parsed, 3);
}

TEST(MetricsTest, GoldenHumanRendering) {
  // Pins the --metrics table byte-for-byte: aligned names, gauge current
  // value with its high-water mark, histogram count with exact-Ratio
  // extrema.
  obs::MetricsRegistry reg;
  reg.counter("sim.steps").inc(42);
  reg.gauge("sim.queue.depth").set(9);
  reg.gauge("sim.queue.depth").set(3);
  reg.histogram("verify.termination_time").observe(Ratio(7, 2));
  reg.histogram("verify.termination_time").observe(Ratio(1, 2));
  EXPECT_EQ(
      reg.to_string(),
      "  sim.steps                counter    42\n"
      "  sim.queue.depth          gauge      3 (max 9)\n"
      "  verify.termination_time  histogram  count=2 min=1/2 max=7/2"
      " mean=2\n");
}

// --- json ------------------------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("name", "quote \" backslash \\ tab \t");
    w.field("ratio", Ratio(7, 2));
    w.field("count", std::int64_t{42});
    w.field("ok", true);
    w.key("list");
    w.begin_array();
    w.value(1.5);
    w.null_value();
    w.end_array();
    w.end_object();
  }
  std::string error;
  const auto v = obs::parse_json(os.str(), &error);
  ASSERT_TRUE(v) << error;
  EXPECT_EQ(v->find("name")->string, "quote \" backslash \\ tab \t");
  EXPECT_EQ(v->find("ratio")->string, "7/2");
  EXPECT_EQ(v->find("count")->as_int64(), 42);
  EXPECT_TRUE(v->find("ok")->boolean);
  ASSERT_EQ(v->find("list")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(v->find("list")->array[0].number, 1.5);
  EXPECT_TRUE(v->find("list")->array[1].is_null());
}

TEST(JsonTest, RejectsTrailingGarbage) {
  std::string error;
  EXPECT_FALSE(obs::parse_json("{} x", &error));
  EXPECT_FALSE(obs::parse_json("{\"a\":}", &error));
}

TEST(JsonTest, DepthCapFailsCleanlyAsMalformed) {
  // 300 unclosed arrays trip the nesting cap — reported as corruption at
  // an interior offset, never as a torn tail (the cap fires before the
  // parser reaches end of input).
  const std::string deep(300, '[');
  std::string error;
  std::size_t offset = 0;
  EXPECT_FALSE(obs::parse_json(deep, &error, &offset));
  EXPECT_EQ(error.rfind("nesting too deep", 0), 0u) << error;
  EXPECT_LT(offset, deep.size());

  // Just under the cap still parses.
  std::string ok_doc(200, '[');
  ok_doc += std::string(200, ']');
  EXPECT_TRUE(obs::parse_json(ok_doc, &error)) << error;
}

TEST(JsonTest, TruncatedPrefixesAllFailCleanly) {
  const std::string doc =
      "{\"a\":[1,2,{\"b\":\"x\\\"y\"}],\"r\":\"7/2\",\"c\":3.5}";
  ASSERT_TRUE(obs::parse_json(doc));
  for (std::size_t cut = 0; cut < doc.size(); ++cut) {
    std::string error;
    const auto v = obs::parse_json(doc.substr(0, cut), &error);
    EXPECT_FALSE(v) << "prefix of length " << cut << " parsed";
    EXPECT_FALSE(error.empty());
  }
}

// Random JsonValue trees for the round-trip fuzz below.
obs::JsonValue fuzz_value(std::mt19937_64& rng, int depth) {
  obs::JsonValue v;
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const int kind = depth >= 4 ? pick(4) : pick(6);
  switch (kind) {
    case 0:
      v.kind = obs::JsonValue::Kind::kNull;
      break;
    case 1:
      v.kind = obs::JsonValue::Kind::kBool;
      v.boolean = pick(2) == 0;
      break;
    case 2: {
      v.kind = obs::JsonValue::Kind::kNumber;
      switch (pick(6)) {
        case 0: v.number = static_cast<double>(pick(1000) - 500); break;
        case 1: v.number = 0.125 * pick(1000); break;
        case 2: v.number = 1.0e20; break;     // outside int64 — stays double
        case 3: v.number = -9.0e18; break;    // integral int64 edge
        case 4: v.number = std::numeric_limits<double>::quiet_NaN(); break;
        case 5: v.number = std::numeric_limits<double>::infinity(); break;
      }
      break;
    }
    case 3: {
      v.kind = obs::JsonValue::Kind::kString;
      // Exact-Ratio strings, quotes, backslashes, control chars.
      const char* samples[] = {"7/2", "-13/4", "q\"q", "b\\b", "\ttab\n",
                               "plain", ""};
      v.string = samples[pick(7)];
      break;
    }
    case 4: {
      v.kind = obs::JsonValue::Kind::kArray;
      const int n = pick(4);
      for (int i = 0; i < n; ++i)
        v.array.push_back(fuzz_value(rng, depth + 1));
      break;
    }
    default: {
      v.kind = obs::JsonValue::Kind::kObject;
      const int n = pick(4);
      for (int i = 0; i < n; ++i)
        v.object.emplace_back("k" + std::to_string(i),
                              fuzz_value(rng, depth + 1));
      break;
    }
  }
  return v;
}

std::string render_value(const obs::JsonValue& v) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_json_value(w, v);
  return os.str();
}

TEST(JsonTest, FuzzedValuesRoundTripThroughWriteAndParse) {
  // write → parse → write is a fixpoint: whatever the first render chose
  // (int64 vs double, null for non-finite), the second render repeats
  // byte-for-byte. Seeds fixed for reproducibility.
  std::mt19937_64 rng(0x5e5510'1992ULL);
  for (int trial = 0; trial < 500; ++trial) {
    const obs::JsonValue original = fuzz_value(rng, 0);
    const std::string first = render_value(original);
    std::string error;
    const auto reparsed = obs::parse_json(first, &error);
    ASSERT_TRUE(reparsed) << error << " in: " << first;
    EXPECT_EQ(render_value(*reparsed), first) << "trial " << trial;
  }
}

TEST(JsonTest, WriteJsonValuePreservesMemberOrderAndIntegers) {
  const std::string doc =
      "{\"z\":1,\"a\":[true,null,\"7/2\"],\"n\":-42,\"d\":0.5}";
  const auto v = obs::parse_json(doc);
  ASSERT_TRUE(v);
  // Integral doubles in int64 range re-render as integers, so the exact
  // input text survives the round trip (member order included).
  EXPECT_EQ(render_value(*v), doc);
}

// --- tracing ---------------------------------------------------------------

TEST(TraceTest, SpansNestAndRecordDepth) {
  obs::TraceSink sink;
  {
    obs::Span outer(&sink, "outer", "sim");
    {
      obs::Span inner(&sink, "inner", "sim");
      sink.instant("fault.crash", "fault");
    }
  }
  ASSERT_EQ(sink.events().size(), 3u);
  // Events are recorded at close: instant, inner, outer.
  EXPECT_EQ(sink.events()[0].name, "fault.crash");
  EXPECT_EQ(sink.events()[0].depth, 2);
  EXPECT_EQ(sink.events()[1].name, "inner");
  EXPECT_EQ(sink.events()[1].depth, 1);
  EXPECT_EQ(sink.events()[2].name, "outer");
  EXPECT_EQ(sink.events()[2].depth, 0);
  EXPECT_EQ(sink.depth(), 0);
}

TEST(TraceTest, NullSinkSpanIsANoOp) {
  obs::Span span(nullptr, "nothing", "sim");
  span.set_args(obs::args_object({obs::arg_int("x", 1)}));
  // Nothing to assert beyond "does not crash".
}

TEST(TraceTest, EventCapCountsDrops) {
  obs::TraceSink sink;
  sink.set_max_events(2);
  for (int i = 0; i < 5; ++i) sink.instant("e", "sim");
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.dropped(), 3);
}

TEST(TraceTest, JsonlRoundTripsThroughParser) {
  obs::TraceSink sink;
  {
    obs::Span span(&sink, "mpm.run", "sim",
                   obs::args_object({obs::arg_int("n", 4),
                                     obs::arg_str("adv", "worst \"case\"")}));
  }
  sink.instant("error.no_progress", "error");
  std::ostringstream os;
  sink.write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  int parsed = 0;
  bool meta_seen = false;
  while (std::getline(lines, line)) {
    std::string error;
    const auto v = obs::parse_json(line, &error);
    ASSERT_TRUE(v) << error << " in: " << line;
    ASSERT_TRUE(v->find("name"));
    ASSERT_TRUE(v->find("ph"));
    if (v->find("name")->string == "trace.meta") {
      // The leading wall-clock anchor that places the file in wall time.
      EXPECT_EQ(parsed, 0);
      EXPECT_EQ(v->find("ph")->string, "M");
      const obs::JsonValue* args = v->find("args");
      ASSERT_TRUE(args);
      ASSERT_TRUE(args->find("epoch_unix_us"));
      EXPECT_EQ(args->find("epoch_unix_us")->as_int64(),
                sink.epoch_unix_us());
      meta_seen = true;
    }
    if (v->find("name")->string == "mpm.run") {
      const obs::JsonValue* args = v->find("args");
      ASSERT_TRUE(args);
      EXPECT_EQ(args->find("n")->as_int64(), 4);
      EXPECT_EQ(args->find("adv")->string, "worst \"case\"");
    }
    ++parsed;
  }
  EXPECT_TRUE(meta_seen);
  EXPECT_EQ(parsed, 3);  // trace.meta anchor + 2 events
}

// A caller-rendered args fragment is normalized through parse_json +
// write_json_value at serialization time: a malformed fragment must not
// poison the line (it travels as an escaped string), and a well-formed one
// must re-render byte-identically.
TEST(TraceTest, MalformedArgsFragmentCannotPoisonTheLine) {
  obs::TraceSink sink;
  sink.instant("bad", "sim", "{broken");
  sink.instant("good", "sim",
               obs::args_object({obs::arg_int("k", 7),
                                 obs::arg_str("s", "a\"b\\c")}));
  std::ostringstream os;
  sink.write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  int seen = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto v = obs::parse_json(line, &error);
    ASSERT_TRUE(v) << error << " in: " << line;
    if (v->find("name")->string == "bad") {
      // The fragment survives, quoted, for post-mortem inspection.
      ASSERT_TRUE(v->find("args"));
      EXPECT_TRUE(v->find("args")->is_string());
      EXPECT_EQ(v->find("args")->string, "{broken");
      ++seen;
    }
    if (v->find("name")->string == "good") {
      ASSERT_TRUE(v->find("args"));
      ASSERT_TRUE(v->find("args")->is_object());
      EXPECT_EQ(v->find("args")->find("k")->as_int64(), 7);
      EXPECT_EQ(v->find("args")->find("s")->string, "a\"b\\c");
      // Byte-identity of the normalized well-formed fragment.
      EXPECT_NE(line.find("\"args\":{\"k\":7,\"s\":\"a\\\"b\\\\c\"}"),
                std::string::npos)
          << line;
      ++seen;
    }
  }
  EXPECT_EQ(seen, 2);
}

// --- profiler --------------------------------------------------------------

TEST(ProfilerTest, RecordsCountsTotalsAndExtremes) {
  obs::Profiler prof;
  EXPECT_TRUE(prof.empty());
  prof.record(obs::ProfilePhase::kProcessStep, 100);
  prof.record(obs::ProfilePhase::kProcessStep, 40);
  prof.record(obs::ProfilePhase::kProcessStep, 260);
  prof.record(obs::ProfilePhase::kDeliver, 7);
  EXPECT_FALSE(prof.empty());
  const obs::PhaseStat& step = prof.stat(obs::ProfilePhase::kProcessStep);
  EXPECT_EQ(step.count, 3);
  EXPECT_EQ(step.total_ns, 400);
  EXPECT_EQ(step.min_ns, 40);
  EXPECT_EQ(step.max_ns, 260);
  EXPECT_EQ(prof.total_ns(), 407);
  EXPECT_EQ(prof.stat(obs::ProfilePhase::kSchedule).count, 0);
}

TEST(ProfilerTest, NullProfileScopeIsANoOp) {
  obs::ProfileScope scope(nullptr, obs::ProfilePhase::kEventQueuePop);
  // Nothing to assert beyond "does not crash / records nothing".
}

TEST(ProfilerTest, ScopeRecordsOneSample) {
  obs::Profiler prof;
  { obs::ProfileScope scope(&prof, obs::ProfilePhase::kAdmissibility); }
  const obs::PhaseStat& s = prof.stat(obs::ProfilePhase::kAdmissibility);
  EXPECT_EQ(s.count, 1);
  EXPECT_GE(s.total_ns, 0);
  EXPECT_EQ(s.total_ns, s.min_ns);
  EXPECT_EQ(s.total_ns, s.max_ns);
}

TEST(ProfilerTest, RingKeepsLastSamplesInChronologicalOrder) {
  obs::PhaseStat stat;
  const int n = obs::PhaseStat::kRecentSamples + 5;
  for (int i = 1; i <= n; ++i) stat.record(i);
  EXPECT_EQ(stat.count, n);
  const auto recent = stat.recent();
  // Oldest surviving sample first: n - kRecentSamples + 1 ... n.
  for (int i = 0; i < obs::PhaseStat::kRecentSamples; ++i)
    EXPECT_EQ(recent[static_cast<std::size_t>(i)],
              n - obs::PhaseStat::kRecentSamples + 1 + i);
}

TEST(ProfilerTest, MergeFoldsCountsExtremaAndRing) {
  obs::Profiler a;
  obs::Profiler b;
  a.record(obs::ProfilePhase::kProcessStep, 50);
  b.record(obs::ProfilePhase::kProcessStep, 10);
  b.record(obs::ProfilePhase::kProcessStep, 90);
  b.record(obs::ProfilePhase::kServeExec, 5);
  a.merge_from(b);
  const obs::PhaseStat& step = a.stat(obs::ProfilePhase::kProcessStep);
  EXPECT_EQ(step.count, 3);
  EXPECT_EQ(step.total_ns, 150);
  EXPECT_EQ(step.min_ns, 10);
  EXPECT_EQ(step.max_ns, 90);
  const auto recent = step.recent();
  EXPECT_EQ(recent[0], 50);  // ours first, other's appended after
  EXPECT_EQ(recent[1], 10);
  EXPECT_EQ(recent[2], 90);
  EXPECT_EQ(a.stat(obs::ProfilePhase::kServeExec).count, 1);
}

TEST(ProfilerTest, MergedCountsAreSplitInvariant) {
  // The job-count invariance in miniature: the same 60 samples split 1 / 2
  // / 6 ways merge to identical counts, totals and extrema.
  const auto run_split = [](int shards) {
    obs::Profiler parent;
    for (int s = 0; s < shards; ++s) {
      obs::Profiler shard;
      for (int i = 0; i < 60 / shards; ++i) {
        const int k = s * (60 / shards) + i;
        shard.record(obs::ProfilePhase::kProcessStep, 10 + k);
        if (k % 3 == 0) shard.record(obs::ProfilePhase::kDeliver, 5);
      }
      parent.merge_from(shard);
    }
    return parent;
  };
  const obs::Profiler one = run_split(1);
  for (const int shards : {2, 6}) {
    const obs::Profiler split = run_split(shards);
    for (int p = 0; p < obs::kProfilePhases; ++p) {
      const auto phase = static_cast<obs::ProfilePhase>(p);
      EXPECT_EQ(split.stat(phase).count, one.stat(phase).count);
      EXPECT_EQ(split.stat(phase).total_ns, one.stat(phase).total_ns);
      EXPECT_EQ(split.stat(phase).min_ns, one.stat(phase).min_ns);
      EXPECT_EQ(split.stat(phase).max_ns, one.stat(phase).max_ns);
    }
  }
}

TEST(ProfilerTest, WriteJsonEmitsEveryPhaseKey) {
  obs::Profiler prof;
  prof.record(obs::ProfilePhase::kEventQueuePop, 12);
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    prof.write_json(w);
  }
  std::string error;
  const auto v = obs::parse_json(os.str(), &error);
  ASSERT_TRUE(v) << error;
  for (int p = 0; p < obs::kProfilePhases; ++p) {
    const auto phase = static_cast<obs::ProfilePhase>(p);
    const obs::JsonValue* stat = v->find(obs::profile_phase_name(phase));
    ASSERT_TRUE(stat) << obs::profile_phase_name(phase);
    ASSERT_TRUE(stat->find("count"));
    if (phase == obs::ProfilePhase::kEventQueuePop) {
      EXPECT_EQ(stat->find("count")->as_int64(), 1);
      EXPECT_EQ(stat->find("total_ns")->as_int64(), 12);
      ASSERT_TRUE(stat->find("recent_ns"));
      ASSERT_EQ(stat->find("recent_ns")->array.size(), 1u);
    } else {
      EXPECT_EQ(stat->find("count")->as_int64(), 0);
      // Zero phases carry only the count — schema-stable but compact.
      EXPECT_FALSE(stat->find("total_ns"));
    }
  }
}

TEST(ProfilerTest, ToStringSortsByTotalAndHandlesEmpty) {
  obs::Profiler prof;
  EXPECT_NE(prof.to_string().find("(no phases recorded)"), std::string::npos);
  prof.record(obs::ProfilePhase::kDeliver, 1'000'000);
  prof.record(obs::ProfilePhase::kProcessStep, 9'000'000);
  const std::string table = prof.to_string();
  const std::size_t step_at = table.find("sim.step");
  const std::size_t deliver_at = table.find("sim.deliver");
  ASSERT_NE(step_at, std::string::npos);
  ASSERT_NE(deliver_at, std::string::npos);
  EXPECT_LT(step_at, deliver_at);  // larger total first
  EXPECT_EQ(table.find("sim.queue_pop"), std::string::npos);  // count 0
}

TEST(ProfilerTest, ObservationShardMirrorsAndMergesProfiler) {
  obs::MetricsRegistry registry;
  obs::Profiler profiler;
  obs::Observer parent(&registry, nullptr);
  parent.profiler = &profiler;
  {
    obs::ObservationShard shard(&parent);
    ASSERT_NE(shard.observer(), nullptr);
    ASSERT_NE(shard.observer()->profiler, nullptr);
    EXPECT_NE(shard.observer()->profiler, &profiler);  // task-private
    shard.observer()->profiler->record(obs::ProfilePhase::kExecTask, 77);
    shard.merge_into_parent();
  }
  EXPECT_EQ(profiler.stat(obs::ProfilePhase::kExecTask).count, 1);
  EXPECT_EQ(profiler.stat(obs::ProfilePhase::kExecTask).total_ns, 77);

  // A parent without a profiler yields shards without one.
  obs::Observer bare(&registry, nullptr);
  obs::ObservationShard bare_shard(&bare);
  EXPECT_EQ(bare_shard.observer()->profiler, nullptr);
}

TEST(ProfilerTest, SweepProfileCountsAreJobCountInvariant) {
  // The real invariance: a profiled worst-case sweep records identical
  // per-phase *counts* at --jobs=1/2/8 (durations differ, counts cannot).
  const ProblemSpec spec{3, 3, 3};
  const TimingConstraints constraints =
      TimingConstraints::sporadic(Duration(1), Duration(1), Duration(5));
  SporadicMpmFactory factory;

  std::array<std::int64_t, obs::kProfilePhases> baseline{};
  for (const int jobs : {1, 2, 8}) {
    obs::MetricsRegistry registry;
    obs::Profiler profiler;
    obs::Observer observer(&registry, nullptr);
    observer.profiler = &profiler;
    obs::Observer* const prev = obs::set_default_observer(&observer);
    const int prev_jobs = exec::set_default_jobs(jobs);
    mpm_worst_case(spec, constraints, factory, 4);
    exec::set_default_jobs(prev_jobs);
    obs::set_default_observer(prev);
    for (int p = 0; p < obs::kProfilePhases; ++p) {
      const auto phase = static_cast<obs::ProfilePhase>(p);
      if (jobs == 1) {
        baseline[static_cast<std::size_t>(p)] = profiler.stat(phase).count;
      } else {
        EXPECT_EQ(profiler.stat(phase).count,
                  baseline[static_cast<std::size_t>(p)])
            << "phase " << obs::profile_phase_name(phase) << " at jobs="
            << jobs;
      }
    }
    // The sweep must actually have been profiled.
    EXPECT_GT(profiler.stat(obs::ProfilePhase::kExecTask).count, 0);
    EXPECT_GT(profiler.stat(obs::ProfilePhase::kProcessStep).count, 0);
  }
}

// --- observer --------------------------------------------------------------

TEST(ObserverTest, NullObserverHooksAreNoOps) {
  obs::observe_fault(nullptr, "crash", 0, Time(1));
  SimError err;
  err.code = SimErrorCode::kNoProgress;
  obs::observe_error(nullptr, err);
  obs::observe_watchdog_margins(nullptr, 10, 100, Time(5), Time(50));
}

TEST(ObserverTest, ResolveFallsBackToDefault) {
  ASSERT_EQ(obs::default_observer(), nullptr) << "test leaked a default";
  EXPECT_EQ(obs::resolve(nullptr), nullptr);

  obs::MetricsRegistry reg;
  obs::Observer observer(&reg);
  obs::Observer* previous = obs::set_default_observer(&observer);
  EXPECT_EQ(previous, nullptr);
  EXPECT_EQ(obs::resolve(nullptr), &observer);

  obs::Observer explicit_observer;
  EXPECT_EQ(obs::resolve(&explicit_observer), &explicit_observer);
  obs::set_default_observer(nullptr);
  EXPECT_EQ(obs::resolve(nullptr), nullptr);
}

TEST(ObserverTest, HooksFeedTheNamedInstruments) {
  obs::MetricsRegistry reg;
  obs::TraceSink sink;
  obs::Observer observer(&reg, &sink);
  ASSERT_NE(observer.faults_injected, nullptr);

  obs::observe_fault(&observer, "drop", 2, Time(3));
  SimError err;
  err.code = SimErrorCode::kStepLimitExceeded;
  obs::observe_error(&observer, err);
  obs::observe_watchdog_margins(&observer, 25, 100, Time(30), Time(40));

  EXPECT_EQ(reg.counters().at("faults.injected").value(), 1);
  EXPECT_EQ(reg.counters().at("sim.errors").value(), 1);
  EXPECT_EQ(reg.histograms().at("sim.watchdog.step_margin").min(),
            Ratio(3, 4));
  EXPECT_EQ(reg.histograms().at("sim.watchdog.time_margin").min(),
            Ratio(1, 4));
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].name, "fault.drop");
  EXPECT_EQ(sink.events()[0].category, "fault");
  EXPECT_EQ(sink.events()[1].category, "error");
}

// A full experiment run with an observer installed populates the simulator
// and verifier metrics; the same run with none leaves no trace of the obs
// layer (the zero-observer contract the hot path is built around).
TEST(ObserverTest, ExperimentRunPopulatesMetricsOnlyWhenObserved) {
  ASSERT_EQ(obs::default_observer(), nullptr);
  const ProblemSpec spec{3, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(1), Duration(5));
  SporadicMpmFactory factory;

  // Unobserved run: nothing installed, nothing recorded anywhere.
  {
    FixedPeriodScheduler sched(spec.n, Duration(1));
    FixedDelay delay(Duration(5));
    const MpmOutcome out =
        run_mpm_once(spec, constraints, factory, sched, delay);
    EXPECT_TRUE(out.verdict.solves);
  }

  obs::MetricsRegistry reg;
  obs::TraceSink sink;
  obs::Observer observer(&reg, &sink);
  {
    FixedPeriodScheduler sched(spec.n, Duration(1));
    FixedDelay delay(Duration(5));
    const MpmOutcome out = run_mpm_once(spec, constraints, factory, sched,
                                        delay, MpmRunLimits{}, nullptr,
                                        &observer);
    EXPECT_TRUE(out.verdict.solves);
  }
  EXPECT_EQ(reg.counters().at("sim.runs").value(), 1);
  EXPECT_GT(reg.counters().at("sim.steps").value(), 0);
  EXPECT_GT(reg.counters().at("sim.messages.delivered").value(), 0);
  EXPECT_EQ(reg.counters().at("verify.runs").value(), 1);
  EXPECT_GE(reg.counters().at("verify.sessions").value(), spec.s);
  EXPECT_EQ(reg.histograms().at("verify.termination_time").count(), 1);
  bool saw_run_span = false, saw_verify_span = false;
  for (const obs::TraceEvent& ev : sink.events()) {
    saw_run_span = saw_run_span || ev.name == "mpm.run";
    saw_verify_span = saw_verify_span || ev.name == "verify.run";
  }
  EXPECT_TRUE(saw_run_span);
  EXPECT_TRUE(saw_verify_span);
}

// --- bench records ---------------------------------------------------------

class BenchRecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sesp_obs_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    ::setenv("SESP_BENCH_JSON_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("SESP_BENCH_JSON_DIR");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

obs::PerfRow sample_row(bool ok) {
  obs::PerfRow row;
  row.cell = "s=2 n=2";
  row.measure = "time";
  row.lower = Ratio(3, 2);
  row.measured = Ratio(2);
  row.upper = Ratio(3);
  row.solved = ok;
  row.admissible = true;
  row.upper_ok = ok;
  row.lower_reached = true;
  return row;
}

TEST_F(BenchRecordTest, FinishWritesValidatedRecord) {
  {
    obs::BenchRecorder recorder("unit");
    recorder.add_row(sample_row(true));
    EXPECT_EQ(recorder.finish(true), 0);
  }
  std::ifstream in(dir_ / "BENCH_unit.json");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  EXPECT_TRUE(obs::validate_bench_record(buf.str(), &error)) << error;
  const auto v = obs::parse_json(buf.str());
  ASSERT_TRUE(v);
  EXPECT_EQ(v->find("schema")->string, "sesp-bench/3");
  EXPECT_EQ(v->find("bench")->string, "unit");
  EXPECT_TRUE(v->find("ok")->boolean);
  ASSERT_EQ(v->find("rows")->array.size(), 1u);
  const obs::JsonValue& row = v->find("rows")->array[0];
  EXPECT_EQ(row.find("lower")->string, "3/2");
  EXPECT_DOUBLE_EQ(row.find("lower_approx")->number, 1.5);
  EXPECT_TRUE(row.find("upper_ok")->boolean);
  ASSERT_TRUE(v->find("notes") && v->find("notes")->is_object());
  EXPECT_TRUE(v->find("notes")->object.empty());
  ASSERT_TRUE(v->find("metrics"));
}

TEST_F(BenchRecordTest, FirstFinishWins) {
  obs::BenchRecorder recorder("unit_twice");
  EXPECT_EQ(recorder.finish(false), 1);
  EXPECT_EQ(recorder.finish(true), 1);  // still the first verdict
  std::ifstream in(dir_ / "BENCH_unit_twice.json");
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto v = obs::parse_json(buf.str());
  ASSERT_TRUE(v);
  EXPECT_FALSE(v->find("ok")->boolean);
}

TEST_F(BenchRecordTest, RecorderRestoresPreviousDefaultObserver) {
  ASSERT_EQ(obs::default_observer(), nullptr);
  {
    obs::BenchRecorder recorder("unit_scope");
    EXPECT_EQ(obs::default_observer(), &recorder.observer());
    recorder.finish(true);
  }
  EXPECT_EQ(obs::default_observer(), nullptr);
}

TEST_F(BenchRecordTest, AggregateDerivesVerdictFromStructuredFields) {
  obs::BenchRecorder good("agg_good");
  good.add_row(sample_row(true));
  obs::BenchRecorder bad("agg_bad");
  bad.add_row(sample_row(false));

  const obs::BenchAggregate agg = obs::aggregate_bench_records(
      {{"good.json", good.render(true)},
       {"bad.json", bad.render(false)},
       {"broken.json", "{not json"}});
  EXPECT_EQ(agg.records, 2);  // the malformed file never becomes a record
  EXPECT_EQ(agg.failed, 1);
  EXPECT_EQ(agg.malformed, 1);
  EXPECT_FALSE(agg.all_ok());
  ASSERT_EQ(agg.failures.size(), 2u);

  std::string error;
  const auto merged = obs::parse_json(agg.results_json, &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->find("schema")->string, "sesp-bench-results/1");
  EXPECT_FALSE(merged->find("all_ok")->boolean);
  EXPECT_EQ(merged->find("benches")->array.size(), 2u);

  const obs::BenchAggregate ok_agg =
      obs::aggregate_bench_records({{"good.json", good.render(true)}});
  EXPECT_TRUE(ok_agg.all_ok());

  good.finish(true);
  bad.finish(false);
}

TEST_F(BenchRecordTest, ValidateRejectsWrongSchemaAndMissingFields) {
  std::string error;
  EXPECT_FALSE(obs::validate_bench_record("{\"schema\":\"other/1\"}", &error));
  EXPECT_FALSE(obs::validate_bench_record("[]", &error));
  EXPECT_FALSE(obs::validate_bench_record("", &error));
  // Only /3 validates: the timed /1 and /2 shapes are retired.
  obs::BenchRecorder recorder("old_schema");
  std::string text = recorder.render(true);
  recorder.finish(true);
  ASSERT_TRUE(obs::validate_bench_record(text, &error)) << error;
  text.replace(text.find("sesp-bench/3"), 12, "sesp-bench/2");
  EXPECT_FALSE(obs::validate_bench_record(text, &error));
}

// A record torn by a killed writer is every proper prefix of a valid one;
// the classifier must separate those (recoverable: rerun the bench) from
// mid-text corruption and schema violations (malformed: a real bug).
TEST_F(BenchRecordTest, ClassifySeparatesTruncatedFromMalformed) {
  obs::BenchRecorder recorder("classify");
  recorder.add_row(sample_row(true));
  const std::string full = recorder.render(true);
  recorder.finish(true);

  std::string error;
  EXPECT_EQ(obs::classify_bench_record(full, &error),
            obs::BenchRecordCheck::kValid)
      << error;

  // Cut anywhere strictly inside the payload (before the closing brace of
  // the top-level object): always truncated, never malformed.
  const std::size_t last_brace = full.find_last_of('}');
  ASSERT_NE(last_brace, std::string::npos);
  for (const std::size_t keep :
       {std::size_t{1}, full.size() / 4, full.size() / 2,
        (3 * full.size()) / 4, last_brace}) {
    EXPECT_EQ(obs::classify_bench_record(full.substr(0, keep), &error),
              obs::BenchRecordCheck::kTruncated)
        << "keep=" << keep;
  }
  // The empty file a writer creates and never fills is truncated too.
  EXPECT_EQ(obs::classify_bench_record("", &error),
            obs::BenchRecordCheck::kTruncated);
  EXPECT_EQ(obs::classify_bench_record("  \n", &error),
            obs::BenchRecordCheck::kTruncated);

  // Mid-text corruption parses wrong before the end: malformed.
  std::string corrupt = full;
  corrupt[corrupt.find(':')] = ';';
  EXPECT_EQ(obs::classify_bench_record(corrupt, &error),
            obs::BenchRecordCheck::kMalformed);
  // Complete JSON of the wrong shape: malformed, not truncated.
  EXPECT_EQ(obs::classify_bench_record("{\"schema\":\"other/1\"}", &error),
            obs::BenchRecordCheck::kMalformed);
  EXPECT_EQ(obs::classify_bench_record("[]", &error),
            obs::BenchRecordCheck::kMalformed);
}

TEST_F(BenchRecordTest, AggregateSkipsTruncatedRecordsWithoutFailing) {
  obs::BenchRecorder good("agg_torn_good");
  good.add_row(sample_row(true));
  const std::string full = good.render(true);
  const std::string torn = full.substr(0, full.size() / 2);
  good.finish(true);

  const obs::BenchAggregate agg = obs::aggregate_bench_records(
      {{"good.json", full}, {"torn.json", torn}});
  EXPECT_EQ(agg.records, 1);
  EXPECT_EQ(agg.failed, 0);
  EXPECT_EQ(agg.malformed, 0);
  EXPECT_EQ(agg.truncated, 1);
  ASSERT_EQ(agg.skipped.size(), 1u);
  EXPECT_EQ(agg.skipped[0].rfind("torn.json", 0), 0u) << agg.skipped[0];
  // Truncation degrades the merge (distinct exit code at the tool level)
  // but does not fail it.
  EXPECT_TRUE(agg.all_ok());

  std::string error;
  const auto merged = obs::parse_json(agg.results_json, &error);
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->find("truncated")->as_int64(), 1);
  ASSERT_EQ(merged->find("skipped")->array.size(), 1u);
  EXPECT_TRUE(merged->find("all_ok")->boolean);

  // All inputs torn: nothing merged, and that cannot count as success.
  const obs::BenchAggregate empty =
      obs::aggregate_bench_records({{"torn.json", torn}});
  EXPECT_EQ(empty.records, 0);
  EXPECT_EQ(empty.truncated, 1);
  EXPECT_FALSE(empty.all_ok());
}

// sesp_bench_merge maps all_ok()+truncated>0 to exit 3 and !all_ok() to
// exit 1; a malformed record must take the failure path even when torn
// records were also skipped, or corruption could hide behind a kill.
TEST_F(BenchRecordTest, MalformedRecordFailsAggregateDespiteTruncation) {
  obs::BenchRecorder good("agg_mixed_good");
  good.add_row(sample_row(true));
  const std::string full = good.render(true);
  const std::string torn = full.substr(0, full.size() / 2);
  std::string corrupt = full;
  corrupt[corrupt.find(':')] = ';';
  good.finish(true);

  const obs::BenchAggregate agg = obs::aggregate_bench_records(
      {{"good.json", full},
       {"torn.json", torn},
       {"corrupt.json", corrupt}});
  EXPECT_EQ(agg.records, 1);
  EXPECT_EQ(agg.failed, 0);
  EXPECT_EQ(agg.truncated, 1);
  EXPECT_EQ(agg.malformed, 1);
  EXPECT_FALSE(agg.all_ok());
  ASSERT_EQ(agg.failures.size(), 1u);
  EXPECT_EQ(agg.failures[0].rfind("corrupt.json", 0), 0u)
      << agg.failures[0];
}

// The record is rendered in one JsonWriter pass, never spliced as text: a
// row whose cells contain the schema's own keys, quotes, backslashes or
// newlines round-trips exactly and leaves the record valid.
TEST_F(BenchRecordTest, MarkerLookalikeValuesCannotCorruptTheRecord) {
  obs::BenchRecorder rec("marker_lookalike");
  obs::PerfRow row = sample_row(true);
  row.cell = "evil \"notes\":{} cell";
  row.measure = "also \"rows\":[] here \\ \n";
  rec.add_row(row);
  const std::string text = rec.render(true);
  rec.finish(true);

  std::string error;
  ASSERT_TRUE(obs::validate_bench_record(text, &error)) << error;
  const auto v = obs::parse_json(text, &error);
  ASSERT_TRUE(v) << error;
  ASSERT_EQ(v->find("rows")->array.size(), 1u);
  const obs::JsonValue& got = v->find("rows")->array[0];
  EXPECT_EQ(got.find("cell")->string, "evil \"notes\":{} cell");
  EXPECT_EQ(got.find("measure")->string, "also \"rows\":[] here \\ \n");
  const obs::JsonValue* notes = v->find("notes");
  ASSERT_TRUE(notes && notes->is_object());
  EXPECT_TRUE(notes->object.empty());
}

// --- report / summary JSON mirrors -----------------------------------------

TEST(ReportJsonTest, WriteJsonMatchesRenderedTable) {
  BoundReport report("json mirror");
  WorstCase wc;
  wc.runs = 3;
  wc.all_solved = true;
  wc.all_admissible = true;
  wc.max_termination = Ratio(7, 2);
  report.add_time_row("s=2 n=2", Ratio(3), wc, Ratio(4));
  wc.all_solved = false;
  wc.max_termination = Ratio(9);
  report.add_time_row("s=4 n=2", Ratio(3), wc, Ratio(4));
  EXPECT_FALSE(report.all_ok());

  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    report.write_json(w);
  }
  const auto v = obs::parse_json(os.str());
  ASSERT_TRUE(v);
  EXPECT_EQ(v->find("title")->string, "json mirror");
  EXPECT_FALSE(v->find("all_ok")->boolean);
  ASSERT_EQ(v->find("rows")->array.size(), report.rows().size());
  for (std::size_t i = 0; i < report.rows().size(); ++i) {
    const BoundRow& row = report.rows()[i];
    const obs::JsonValue& j = v->find("rows")->array[i];
    EXPECT_EQ(j.find("cell")->string, row.cell);
    EXPECT_EQ(j.find("lower")->string, row.lower.to_string());
    EXPECT_EQ(j.find("measured")->string, row.measured.to_string());
    EXPECT_EQ(j.find("upper")->string, row.upper.to_string());
    EXPECT_EQ(j.find("solved")->boolean, row.solved);
    EXPECT_EQ(j.find("upper_ok")->boolean, row.upper_ok());
    EXPECT_EQ(j.find("lower_reached")->boolean, row.lower_reached());
  }
  // The structured verdict and the rendered verdict line must agree.
  std::ostringstream table;
  report.print(table);
  EXPECT_NE(table.str().find("[FAIL]"), std::string::npos);
}

TEST(ReportJsonTest, AppendRowsMirrorsIntoBenchRecorder) {
  BoundReport report("recorder mirror");
  WorstCase wc;
  wc.all_solved = true;
  wc.all_admissible = true;
  wc.max_termination = Ratio(2);
  report.add_time_row("cell", Ratio(1), wc, Ratio(2));

  ::setenv("SESP_BENCH_JSON_DIR", std::filesystem::temp_directory_path().c_str(),
           1);
  obs::BenchRecorder recorder("mirror_unit");
  report.append_rows(recorder);
  const std::string text = recorder.render(report.all_ok());
  recorder.finish(report.all_ok());
  ::unsetenv("SESP_BENCH_JSON_DIR");
  std::error_code ec;
  std::filesystem::remove(
      std::filesystem::temp_directory_path() / "BENCH_mirror_unit.json", ec);

  const auto v = obs::parse_json(text);
  ASSERT_TRUE(v);
  ASSERT_EQ(v->find("rows")->array.size(), 1u);
  EXPECT_EQ(v->find("rows")->array[0].find("cell")->string, "cell");
  EXPECT_TRUE(v->find("ok")->boolean);
}

TEST(ReportJsonTest, SummaryJsonMatchesExactExtremes) {
  Summary summary;
  summary.add(Ratio(1, 2));
  summary.add(Ratio(5, 2));
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    summary.write_json(w);
  }
  const auto v = obs::parse_json(os.str());
  ASSERT_TRUE(v);
  EXPECT_EQ(v->find("count")->as_int64(), 2);
  EXPECT_EQ(v->find("min")->string, "1/2");
  EXPECT_EQ(v->find("max")->string, "5/2");
  EXPECT_DOUBLE_EQ(v->find("mean")->number, 1.5);
}

}  // namespace
}  // namespace sesp
