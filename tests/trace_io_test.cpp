#include "model/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "conformance/generator.hpp"
#include "sim/experiment.hpp"

namespace sesp {
namespace {

TEST(RatioTextTest, RoundTrip) {
  for (const Ratio r : {Ratio(0), Ratio(7), Ratio(-3), Ratio(7, 2),
                        Ratio(-22, 7), Ratio(1, 1000000)}) {
    const auto back = ratio_from_text(ratio_to_text(r));
    ASSERT_TRUE(back.has_value()) << r.to_string();
    EXPECT_EQ(*back, r);
  }
}

TEST(RatioTextTest, RejectsGarbage) {
  EXPECT_FALSE(ratio_from_text("").has_value());
  EXPECT_FALSE(ratio_from_text("abc").has_value());
  EXPECT_FALSE(ratio_from_text("1/0").has_value());
  EXPECT_FALSE(ratio_from_text("1/2/3").has_value());
  EXPECT_FALSE(ratio_from_text("1.5").has_value());
}

bool traces_equal(const TimedComputation& a, const TimedComputation& b) {
  if (a.substrate() != b.substrate() ||
      a.num_processes() != b.num_processes() ||
      a.num_ports() != b.num_ports() ||
      a.steps().size() != b.steps().size() ||
      a.messages().size() != b.messages().size())
    return false;
  for (std::size_t i = 0; i < a.steps().size(); ++i) {
    const StepRecord& x = a.steps()[i];
    const StepRecord& y = b.steps()[i];
    if (x.kind != y.kind || x.process != y.process || x.time != y.time ||
        x.port != y.port || x.var != y.var || x.delivered != y.delivered ||
        x.idle_after != y.idle_after ||
        x.value_before_digest != y.value_before_digest ||
        x.value_after_digest != y.value_after_digest)
      return false;
  }
  for (std::size_t i = 0; i < a.messages().size(); ++i) {
    const MessageRecord& x = a.messages()[i];
    const MessageRecord& y = b.messages()[i];
    if (x.sender != y.sender || x.recipient != y.recipient ||
        x.send_step != y.send_step || x.deliver_step != y.deliver_step ||
        x.receive_step != y.receive_step || x.session != y.session ||
        x.steps != y.steps || x.done != y.done)
      return false;
  }
  return true;
}

TEST(TraceIoTest, MpmRoundTrip) {
  const ProblemSpec spec{3, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(1), Duration(7, 2));
  SporadicMpmFactory factory;
  FixedPeriodScheduler sched(spec.n, Duration(1));
  FixedDelay delay{Duration(7, 2)};
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, sched, delay);
  ASSERT_TRUE(out.run.completed);

  const std::string text = to_text(out.run.trace);
  std::string error;
  const auto parsed = trace_from_text(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(traces_equal(out.run.trace, *parsed));
  // Re-serializing is byte-identical (canonical form).
  EXPECT_EQ(to_text(*parsed), text);
}

TEST(TraceIoTest, SmmRoundTrip) {
  const ProblemSpec spec{2, 4, 3};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(static_cast<std::size_t>(total), Duration(3, 2)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(total, Duration(3, 2));
  const SmmOutcome out = run_smm_once(spec, constraints, factory, sched);
  ASSERT_TRUE(out.run.completed);

  const std::string text = to_text(out.run.trace);
  std::string error;
  const auto parsed = trace_from_text(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(traces_equal(out.run.trace, *parsed));
}

// Each malformed input is refused with its exact error string; the strings
// were recorded with the earlier stream-based codec.
TEST(TraceIoTest, RejectsBadInput) {
  const std::string head = "sesp-trace v1\nmeta,mpm,2,2\n";
  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {"", "missing 'sesp-trace v1' header"},
      {"sesp-trace v1\n", "missing meta line"},
      {"sesp-trace v1", "missing meta line"},
      {"sesp-trace v1\n\n", "malformed meta line"},
      {"sesp-trace v1\nmeta,smm,2\n", "malformed meta line"},
      {"sesp-trace v1\nmeta,smm,2,2,2\n", "malformed meta line"},
      {"sesp-trace v1\nmeta,xxx,2,2\n", "malformed meta line"},
      {"sesp-trace v1\nmeta,smm,2,x\n", "malformed meta counts"},
      {"sesp-trace v1\nmeta,smm,2,2\r\n", "malformed meta counts"},
      {"sesp-trace v1\r\nmeta,smm,2,2\n", "missing 'sesp-trace v1' header"},
      {" sesp-trace v1\nmeta,smm,2,2\n", "missing 'sesp-trace v1' header"},
      {head + "step,c,0,1/0,-1,-1,-1,0,0,0\n",
       "line 3: malformed step fields"},
      {head + "step,c,0,1,-1,-1,-1,0,0,0,\n", "line 3: step needs 10 fields"},
      {head + "step,c,0\n", "line 3: step needs 10 fields"},
      {head + "step,c,0,1,-1,-1,-1,0,0,x\n",
       "line 3: malformed step fields"},
      {head + "step,c,0,1,-1,-1,-1,0,0,-1\n",
       "line 3: malformed step fields"},
      {head + "step,c,0,1, -1,-1,-1,0,0,0\n",
       "line 3: malformed step fields"},
      {head + "step,c,0,1/2/3,-1,-1,-1,0,0,0\n",
       "line 3: malformed step fields"},
      {head + "msg,0,1,0,-,-,0,0,0,0\n", "line 3: msg needs 9 fields"},
      {head + "msg,0,1,-1,-,-,0,0,0\n", "line 3: malformed msg fields"},
      {head + "msg,0,1,0,x,-,0,0,x\n", "line 3: malformed msg fields"},
      {head + "\nstep,x,0,1,-1,-1,-1,0,0,0\n", "line 4: bad step kind"},
      {head + "bogus,1,2\n", "line 3: unknown record 'bogus'"},
      {head + ",1,2\n", "line 3: unknown record ''"},
      {head + "step\n", "line 3: step needs 10 fields"},
      {head + "msg,0,1,0,+1,-,0,0,0\n", "line 3: malformed deliver step"},
      {head + "msg,0,1,0,-,x,0,0,0\n", "line 3: malformed receive step"},
      {head + "step,c,0,1,-1,-1,-1,0,0,0\r\n",
       "line 3: malformed step fields"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(trace_from_text(c.text, &error).has_value()) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

TEST(ConstraintsTextTest, RoundTripAllModels) {
  const TimingConstraints cases[] = {
      TimingConstraints::synchronous(Duration(3, 2), Duration(4)),
      TimingConstraints::periodic({Duration(1), Duration(5, 3)}, Duration(2)),
      TimingConstraints::semi_synchronous(Duration(1), Duration(9, 2),
                                          Duration(11)),
      TimingConstraints::sporadic(Duration(2), Duration(1), Duration(8)),
      TimingConstraints::asynchronous(Duration(2), Duration(6)),
  };
  for (const TimingConstraints& tc : cases) {
    std::string error;
    const auto back = constraints_from_text(to_text(tc), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->model, tc.model);
    EXPECT_EQ(back->c1, tc.c1);
    EXPECT_EQ(back->c2, tc.c2);
    EXPECT_EQ(back->d1, tc.d1);
    EXPECT_EQ(back->d2, tc.d2);
    EXPECT_EQ(back->periods, tc.periods);
  }
}

TEST(ConstraintsTextTest, RejectsBadInput) {
  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {"", "malformed constraints line"},
      {"nope", "malformed constraints line"},
      {"constraints,sporadic,1,2,0", "malformed constraints line"},
      {"constraint,sporadic,1,2,0,4", "malformed constraints line"},
      {"constraints,warp,1,2,0,4", "unknown timing model 'warp'"},
      {"constraints,sporadic,x,2,0,4", "malformed constraint bounds"},
      {"constraints,sporadic,1,2,0,4/0", "malformed constraint bounds"},
      {"constraints,periodic,1,2,0,4,1,", "malformed period"},
      {"constraints,periodic,1,2,0,4\n", "malformed constraint bounds"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(constraints_from_text(c.text, &error).has_value()) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

// The pinned values below were recorded with the earlier stream-based
// codec: they hold the format and the accepted input language to its bytes.

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char ch : s) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

// Every run_case trace of the conformance pool (base seeds 1000-1063, 20
// cases per cell over all ten cells, as perfbench's conformance workload
// generates them) renders to pinned bytes and re-renders byte-exactly.
TEST(TraceIoPinTest, ConformanceCorpusTextIsPinned) {
  using namespace conformance;
  std::uint64_t digest = 1469598103934665603ULL;
  std::size_t traces = 0;
  const std::size_t cells = all_models().size() * all_substrates().size();
  for (std::uint64_t base = 1000; base < 1064; ++base) {
    for (std::size_t cell = 0; cell < cells; ++cell) {
      for (std::uint64_t index = 0; index < 20; ++index) {
        const CaseDescriptor c = generate_case(
            all_models()[cell / all_substrates().size()],
            all_substrates()[cell % all_substrates().size()],
            case_seed(base, cell, index));
        const GeneratedRun run = run_case(c);
        ASSERT_TRUE(run.trace.has_value()) << c.to_string();
        const std::string text = to_text(*run.trace);
        digest = fnv1a(digest, text);
        ++traces;
        std::string error;
        const auto parsed = trace_from_text(text, &error);
        ASSERT_TRUE(parsed.has_value()) << c.to_string() << ": " << error;
        ASSERT_EQ(to_text(*parsed), text) << c.to_string();
      }
    }
  }
  EXPECT_EQ(traces, 12800u);
  EXPECT_EQ(digest, 0xcc43700068c0c300ULL);
}

// Values at the edges of every field's range survive a byte-exact round
// trip; "-" stands for a pending delivery or receipt.
TEST(TraceIoPinTest, ExtremeValuesRoundTripByteExactly) {
  const std::string text =
      "sesp-trace v1\n"
      "meta,smm,2147483647,-1\n"
      "step,c,0,-9223372036854775808,-1,-1,-1,0,18446744073709551615,0\n"
      "step,d,-1,9223372036854775807,-1,-1,9223372036854775807,1,0,"
      "18446744073709551615\n"
      "step,c,2147483647,-9223372036854775808/9223372036854775807,"
      "2147483647,-2147483648,-9223372036854775808,1,1,2\n"
      "step,c,-2147483648,1/9223372036854775807,-1,2147483647,-1,0,"
      "18446744073709551615,18446744073709551615\n"
      "step,c,7,9223372036854775807/9223372036854775806,0,0,0,0,0,0\n"
      "msg,-2147483648,2147483647,18446744073709551614,-,-,"
      "-9223372036854775808,9223372036854775807,1\n"
      "msg,0,1,0,18446744073709551614,18446744073709551613,-1,-1,0\n"
      "msg,-1,-1,3,2,-,0,0,0\n";
  std::string error;
  const auto parsed = trace_from_text(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(to_text(*parsed), text);
  ASSERT_EQ(parsed->steps().size(), 5u);
  ASSERT_EQ(parsed->messages().size(), 3u);
  EXPECT_EQ(parsed->steps()[0].time, Time(INT64_MIN));
  EXPECT_EQ(parsed->steps()[2].time, Ratio(INT64_MIN, INT64_MAX));
  EXPECT_EQ(parsed->steps()[0].value_before_digest, UINT64_MAX);
  EXPECT_EQ(parsed->steps()[1].delivered, INT64_MAX);
  EXPECT_FALSE(parsed->messages()[0].delivered());
  EXPECT_FALSE(parsed->messages()[0].received());
  EXPECT_EQ(parsed->messages()[1].deliver_step, UINT64_MAX - 1);

  // Idle and done flags read any integer as a boolean; a deliver step of
  // SIZE_MAX reads as pending. Both re-render in canonical form.
  const auto loose = trace_from_text(
      "sesp-trace v1\nmeta,mpm,2,2\nstep,c,0,4/2,0,-1,-1,-5,0,0\n"
      "msg,0,1,0,18446744073709551615,-,0,0,7\n",
      &error);
  ASSERT_TRUE(loose.has_value()) << error;
  EXPECT_EQ(to_text(*loose),
            "sesp-trace v1\nmeta,mpm,2,2\nstep,c,0,2,0,-1,-1,1,0,0\n"
            "msg,0,1,0,-,-,0,0,1\n");

  TimingConstraints tc;
  tc.model = TimingModel::kPeriodic;
  tc.c1 = Ratio(INT64_MIN, 3);
  tc.c2 = Ratio(INT64_MAX);
  tc.d1 = Ratio(INT64_MIN);
  tc.d2 = Ratio(INT64_MIN + 1, INT64_MAX - 1);
  tc.periods = {Ratio(INT64_MAX), Ratio(1, INT64_MAX), Ratio(-1, INT64_MAX)};
  const std::string ktext = to_text(tc);
  EXPECT_EQ(ktext,
            "constraints,periodic,-9223372036854775808/3,9223372036854775807,"
            "-9223372036854775808,-9223372036854775807/9223372036854775806,"
            "9223372036854775807,1/9223372036854775807,"
            "-1/9223372036854775807");
  const auto kback = constraints_from_text(ktext, &error);
  ASSERT_TRUE(kback.has_value()) << error;
  EXPECT_EQ(to_text(*kback), ktext);
}

}  // namespace
}  // namespace sesp
