// Unit and property tests for the conformance subsystem itself: generator
// determinism and admissibility-by-construction, the zero-failure contract
// of the oracle stack on correct algorithms, job-count invariance of the
// harness report, witness round-tripping, shrinker determinism, and the
// mutated-reference self-test that proves the differential oracles can
// actually fire.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conformance/harness.hpp"
#include "conformance/oracles.hpp"
#include "conformance/shrinker.hpp"
#include "conformance/witness.hpp"
#include "model/trace_io.hpp"
#include "support/test_support.hpp"

namespace sesp {
namespace {

using conformance::CaseDescriptor;
using conformance::CaseResult;
using conformance::ConformanceConfig;
using conformance::ConformanceReport;
using test_support::JobsGuard;

// --- Generator ---------------------------------------------------------------

TEST(ConformanceGenerator, DescriptorsAreSeedDeterministic) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const CaseDescriptor a =
            conformance::generate_case(model, substrate, seed);
        const CaseDescriptor b =
            conformance::generate_case(model, substrate, seed);
        EXPECT_EQ(a.to_string(), b.to_string());
      }
    }
  }
}

TEST(ConformanceGenerator, RunsAreByteDeterministic) {
  const CaseDescriptor c = conformance::generate_case(
      TimingModel::kSporadic, Substrate::kMessagePassing, 42);
  const conformance::GeneratedRun a = conformance::run_case(c);
  const conformance::GeneratedRun b = conformance::run_case(c);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_TRUE(a.trace.has_value());
  ASSERT_TRUE(b.trace.has_value());
  EXPECT_EQ(to_text(*a.trace), to_text(*b.trace));
}

TEST(ConformanceGenerator, GeneratedCasesAreAdmissibleByConstruction) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 100; seed < 110; ++seed) {
        const CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(3, 0, seed));
        const conformance::GeneratedRun run = conformance::run_case(c);
        ASSERT_TRUE(run.ok) << c.to_string() << ": " << run.error;
        EXPECT_TRUE(run.verdict.admissible)
            << c.to_string() << ": " << run.verdict.admissibility_violation;
      }
    }
  }
}

TEST(ConformanceGenerator, CaseSeedsAreDistinctAcrossCellsAndIndices) {
  // Not a cryptographic claim — just a guard against accidentally feeding
  // every cell the same stream.
  const std::uint64_t a = conformance::case_seed(1, 0, 0);
  const std::uint64_t b = conformance::case_seed(1, 0, 1);
  const std::uint64_t c = conformance::case_seed(1, 1, 0);
  const std::uint64_t d = conformance::case_seed(2, 0, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(b, c);
}

// --- Oracle stack ------------------------------------------------------------

TEST(ConformanceOracles, CorrectAlgorithmsPassTheFullStack) {
  const conformance::OracleOptions options;
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(11, 5, seed));
        const CaseResult result = conformance::check_case(c, options);
        EXPECT_TRUE(result.ok())
            << c.to_string() << ": [" << result.first_oracle() << "] "
            << (result.failures.empty() ? std::string()
                                        : result.failures[0].detail);
      }
    }
  }
}

TEST(ConformanceOracles, MutatedReferenceIsDetected) {
  conformance::OracleOptions options;
  options.mutate_reference = true;
  bool fired = false;
  for (std::uint64_t seed = 0; seed < 20 && !fired; ++seed) {
    const CaseDescriptor c = conformance::generate_case(
        TimingModel::kSemiSynchronous, Substrate::kSharedMemory,
        conformance::case_seed(5, 4, seed));
    const CaseResult result = conformance::check_case(c, options);
    if (!result.ok()) {
      EXPECT_EQ(result.first_oracle(), "sessions-ref");
      fired = true;
    }
  }
  EXPECT_TRUE(fired) << "planted reference bug never detected";
}

// --- Harness -----------------------------------------------------------------

ConformanceConfig small_config() {
  ConformanceConfig config;
  config.seed = 2026;
  config.cases_per_cell = 25;
  return config;
}

TEST(ConformanceHarness, QuickRunIsCleanOnCorrectAlgorithms) {
  ConformanceConfig config = small_config();
  config.jobs = 2;
  const ConformanceReport report = conformance::run_conformance(config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.total_cases,
            config.cases_per_cell *
                static_cast<std::int64_t>(report.cells.size()));
  EXPECT_EQ(report.cells.size(),
            conformance::all_models().size() *
                conformance::all_substrates().size());
  EXPECT_FALSE(report.digest.empty());
}

TEST(ConformanceHarness, ReportIsJobCountInvariant) {
  ConformanceConfig config = small_config();
  config.jobs = 1;
  const ConformanceReport reference = conformance::run_conformance(config);
  for (const int jobs : {2, 8}) {
    config.jobs = jobs;
    const ConformanceReport report = conformance::run_conformance(config);
    EXPECT_EQ(report.digest, reference.digest) << "jobs=" << jobs;
    EXPECT_EQ(report.total_cases, reference.total_cases);
    EXPECT_EQ(report.total_failures, reference.total_failures);
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      EXPECT_EQ(report.cells[i].digest, reference.cells[i].digest)
          << "jobs=" << jobs << " cell=" << i;
      EXPECT_EQ(report.cells[i].sessions_total,
                reference.cells[i].sessions_total);
      EXPECT_EQ(report.cells[i].steps_total, reference.cells[i].steps_total);
    }
  }
}

TEST(ConformanceHarness, RespectsExecDefaultJobs) {
  // jobs=0 resolves through the exec:: default; the report must still match
  // the explicit serial run.
  ConformanceConfig config = small_config();
  config.cases_per_cell = 10;
  config.jobs = 1;
  const ConformanceReport reference = conformance::run_conformance(config);
  JobsGuard guard(4);
  config.jobs = 0;
  const ConformanceReport report = conformance::run_conformance(config);
  EXPECT_EQ(report.digest, reference.digest);
}

// --- Witness and shrinker ----------------------------------------------------

TEST(ConformanceWitness, RoundTripsThroughText) {
  CaseDescriptor c = conformance::generate_case(
      TimingModel::kPeriodic, Substrate::kMessagePassing, 77);
  c.algorithm_override = "broken-nowait";
  const conformance::GeneratedRun run = conformance::run_case(c);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(run.trace.has_value());

  conformance::Witness w;
  w.descriptor = c;
  w.oracle = "solves";
  w.trace_text = to_text(*run.trace);
  const std::string text = conformance::write_witness(w);

  std::string error;
  const auto parsed = conformance::parse_witness(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->oracle, w.oracle);
  EXPECT_EQ(parsed->trace_text, w.trace_text);
  EXPECT_EQ(parsed->descriptor.to_string(), c.to_string());
}

TEST(ConformanceWitness, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(conformance::parse_witness("", &error).has_value());
  EXPECT_FALSE(
      conformance::parse_witness("not a witness\n", &error).has_value());
  EXPECT_FALSE(error.empty());

  // A periodic SMM witness (n = 2, b = 2: three scheduled processes) and
  // one-line edits of it that no scheduler or tree layout can run.
  const auto witness = [](const std::string& case_line,
                          const std::string& constraints_line) {
    return "sesp-conformance-witness v1\n" + case_line +
           "\noracle,solves\n" + constraints_line +
           "\nsesp-trace v1\nmeta,smm,3,2\n";
  };
  const std::string good_case =
      "case,smm,0,0,2,2,2,4414019431610648415,broken-toofewsteps:1";
  const std::string good_constraints =
      "constraints,periodic,1/2,3,0,1,3,1/2,3";
  ASSERT_TRUE(conformance::parse_witness(
                  witness(good_case, good_constraints), &error)
                  .has_value())
      << error;
  const std::vector<std::string> crafted = {
      witness(good_case, "constraints,periodic,1/2,3,0,1"),
      witness(good_case, "constraints,periodic,1/2,3,0,1,3"),
      witness(good_case, "constraints,periodic,1/2,3,0,1,0,0,0"),
      witness("case,smm,0,0,2,0,2,4414019431610648415,broken-toofewsteps:1",
              good_constraints),
      witness("case,smm,0,0,2,-3,2,4414019431610648415,broken-toofewsteps:1",
              good_constraints),
  };
  for (const std::string& text : crafted) {
    error.clear();
    EXPECT_FALSE(conformance::parse_witness(text, &error).has_value())
        << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// Finds a failing broken-algorithm case for the shrinker tests.
std::optional<CaseDescriptor> find_failing_case(
    const conformance::OracleOptions& options) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    CaseDescriptor c = conformance::generate_case(
        TimingModel::kSemiSynchronous, Substrate::kSharedMemory,
        conformance::case_seed(9, 6, seed));
    c.algorithm_override = "broken-toofewsteps:1";
    if (!conformance::check_case(c, options).ok()) return c;
  }
  return std::nullopt;
}

TEST(ConformanceShrinker, MinimizesAndPreservesTheFailureMode) {
  const conformance::OracleOptions options;
  const auto failing = find_failing_case(options);
  ASSERT_TRUE(failing.has_value());
  const CaseResult original = conformance::check_case(*failing, options);

  const auto shrunk = conformance::shrink_case(*failing, options);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->oracle, original.first_oracle());
  EXPECT_LE(shrunk->steps, original.steps);
  EXPECT_LE(shrunk->minimized.spec.s, failing->spec.s);
  EXPECT_LE(shrunk->minimized.spec.n, failing->spec.n);

  // The minimized descriptor still fails with the same oracle.
  const CaseResult re = conformance::check_case(shrunk->minimized, options);
  EXPECT_EQ(re.first_oracle(), shrunk->oracle);
}

TEST(ConformanceShrinker, IsDeterministic) {
  const conformance::OracleOptions options;
  const auto failing = find_failing_case(options);
  ASSERT_TRUE(failing.has_value());
  const auto a = conformance::shrink_case(*failing, options);
  const auto b = conformance::shrink_case(*failing, options);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->minimized.to_string(), b->minimized.to_string());
  EXPECT_EQ(a->attempts, b->attempts);
  EXPECT_EQ(a->accepted, b->accepted);
}

TEST(ConformanceShrinker, RefusesPassingCases) {
  const conformance::OracleOptions options;
  const CaseDescriptor c = conformance::generate_case(
      TimingModel::kSynchronous, Substrate::kSharedMemory,
      conformance::case_seed(1, 0, 0));
  EXPECT_FALSE(conformance::shrink_case(c, options).has_value());
}

}  // namespace
}  // namespace sesp
