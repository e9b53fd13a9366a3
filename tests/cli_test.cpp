// End-to-end tests of the command-line tools, exercised as real
// subprocesses (paths injected by CMake): every substrate/model combination
// runs admissibly, certificates round-trip between sesp_attack and
// sesp_cli, and usage errors exit with status 2.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace sesp {
namespace {

struct CommandResult {
  int status = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe))
    result.output += buffer.data();
  const int rc = pclose(pipe);
  result.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return result;
}

const std::string kCli = SESP_CLI_PATH;
const std::string kAttack = SESP_ATTACK_PATH;
const std::string kConformance = SESP_CONFORMANCE_PATH;
const std::string kBenchMerge = SESP_BENCH_MERGE_PATH;

// Drops the tool's stderr (resume hints, recovery chatter) so the captured
// output is exactly the stdout the byte-identity contract covers.
std::string stdout_only(const std::string& command) {
  return "( " + command + " 2>/dev/null )";
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

TEST(CliTest, RunsEveryModelOnMpm) {
  for (const std::string model :
       {"sync", "periodic", "semisync", "sporadic", "async"}) {
    const auto r = run_command(kCli + " --substrate=mpm --model=" + model +
                               " --s=3 --n=3 --c1=1 --c2=4 --d1=1 --d2=6" +
                               " --adversary=worst");
    EXPECT_EQ(r.status, 0) << model << "\n" << r.output;
    EXPECT_NE(r.output.find("all solved:  yes"), std::string::npos)
        << model << "\n" << r.output;
  }
}

TEST(CliTest, LockstepAndRandomAdversariesAdmissible) {
  for (const std::string adversary : {"lockstep", "random"}) {
    for (const std::string model : {"periodic", "semisync", "sporadic"}) {
      const auto r = run_command(
          kCli + " --substrate=mpm --model=" + model + " --adversary=" +
          adversary + " --s=3 --n=3 --c1=1 --c2=4 --d1=1 --d2=6");
      EXPECT_EQ(r.status, 0) << model << "/" << adversary << "\n" << r.output;
      EXPECT_NE(r.output.find("admissible:  yes"), std::string::npos)
          << model << "/" << adversary << "\n" << r.output;
    }
  }
}

TEST(CliTest, SmmAndP2pRun) {
  const auto smm = run_command(
      kCli + " --substrate=smm --model=periodic --s=3 --n=6 --b=3"
             " --c1=1 --c2=2 --adversary=lockstep --stats");
  EXPECT_EQ(smm.status, 0) << smm.output;
  EXPECT_NE(smm.output.find("stats:"), std::string::npos);

  const auto p2p = run_command(
      kCli + " --substrate=p2p --model=async --topology=ring --s=2 --n=6"
             " --c2=1 --d2=3 --timeline");
  EXPECT_EQ(p2p.status, 0) << p2p.output;
  EXPECT_NE(p2p.output.find("diameter 3"), std::string::npos);
  EXPECT_NE(p2p.output.find("sessions"), std::string::npos);
}

TEST(CliTest, CertificatePipelineRoundTrips) {
  const std::string cert = ::testing::TempDir() + "/sesp_cli_test_cert.txt";
  const auto attack = run_command(
      kAttack + " --construction=semisync-sm --alg=too-few-steps:2"
                " --s=4 --n=8 --c1=1 --c2=12 --out=" + cert);
  ASSERT_EQ(attack.status, 0) << attack.output;
  EXPECT_NE(attack.output.find("certificate=YES"), std::string::npos);

  const auto check = run_command(kCli + " --check-certificate=" + cert);
  EXPECT_EQ(check.status, 0) << check.output;
  EXPECT_NE(check.output.find("VALID"), std::string::npos);
  std::remove(cert.c_str());
}

TEST(CliTest, AttackReportsSurvivorsWithExpectSurvive) {
  const auto r = run_command(
      kAttack + " --construction=sporadic-mp --alg=asp --s=3 --n=3"
                " --c1=1 --d1=2 --d2=42 --expect-survive");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("certificate=no"), std::string::npos);
}

TEST(CliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run_command(kCli + " --bogus-flag").status, 2);
  EXPECT_EQ(run_command(kCli + " --substrate=carrier-pigeon").status, 2);
  EXPECT_EQ(run_command(kAttack + " --construction=nope").status, 2);
  EXPECT_EQ(
      run_command(kCli + " --check-certificate=/definitely/missing").status,
      2);
  // Malformed or out-of-range integer flags are usage errors, never aborts.
  for (const std::string& command :
       {kCli + " --s=abc", kCli + " --n=99999999999", kCli + " --jobs=1x",
        kCli + " --task-retries=q", kAttack + " --s=abc",
        kConformance + " --cases=abc"}) {
    const auto r = run_command(command);
    EXPECT_EQ(r.status, 2) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("bad integer for --"), std::string::npos)
        << command << "\n" << r.output;
  }
  // Unknown names are rejected with the valid values listed, before any
  // run starts.
  for (const std::string& command :
       {kCli + " --model=bogus --adversary=lockstep --s=2 --n=2",
        kCli + " --adversary=bogus",
        kCli + " --substrate=p2p --topology=bogus"}) {
    const auto r = run_command(command);
    EXPECT_EQ(r.status, 2) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("(want "), std::string::npos)
        << command << "\n" << r.output;
    EXPECT_EQ(r.output.find("algorithm:"), std::string::npos) << r.output;
  }
}

// Coprime denominators near 1e6 push the worst-case family's exact times
// past int64. That rejects the instance like a bad flag (exit 2 with a
// diagnostic); it must not abort (134) or report the algorithm as failing.
TEST(CliTest, UnrepresentableInstanceExitsTwo) {
  const auto r = run_command(
      kCli + " --substrate=mpm --model=sporadic --adversary=worst --s=3"
             " --n=3 --c1=1/1000003 --d1=1/999983 --d2=1/999979");
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find("not representable in exact arithmetic"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("all solved:"), std::string::npos) << r.output;
}

// The crash-safe execution contract end to end (docs/robustness.md): a run
// interrupted mid-sweep exits 75 with a resume hint, and --resume completes
// it to a stdout byte-identical to the uninterrupted run's.
TEST(CliTest, InterruptAndResumeIsByteIdentical) {
  const std::string journal = ::testing::TempDir() + "/cli_resume.journal";
  std::remove(journal.c_str());
  const std::string sweep =
      kCli + " --substrate=mpm --model=sporadic --adversary=worst"
             " --s=3 --n=3 --c1=1 --d1=1 --d2=4 --jobs=2";

  const auto plain = run_command(stdout_only(sweep));
  ASSERT_EQ(plain.status, 0) << plain.output;

  const auto interrupted = run_command(
      "SESP_STOP_AFTER=2 SESP_JOURNAL_FSYNC=0 " + sweep +
      " --journal=" + journal);
  ASSERT_EQ(interrupted.status, 75) << interrupted.output;
  EXPECT_NE(interrupted.output.find("resume with --resume="),
            std::string::npos)
      << interrupted.output;
  // The partial run never prints the report.
  EXPECT_EQ(interrupted.output.find("all solved"), std::string::npos)
      << interrupted.output;

  // Resume (repeatedly, in case another stop fires) until completion; the
  // final stdout must match the uninterrupted run byte for byte.
  CommandResult resumed;
  for (int i = 0; i < 50; ++i) {
    resumed = run_command(
        stdout_only("SESP_JOURNAL_FSYNC=0 " + sweep + " --resume=" + journal));
    if (resumed.status != 75) break;
  }
  ASSERT_EQ(resumed.status, 0) << resumed.output;
  EXPECT_EQ(resumed.output, plain.output);
  std::remove(journal.c_str());
}

TEST(CliTest, ConformanceResumeMatchesUninterruptedRun) {
  const std::string journal =
      ::testing::TempDir() + "/conformance_resume.journal";
  std::remove(journal.c_str());
  const std::string campaign =
      kConformance + " --cases=10 --seed=5 --jobs=2 --no-minimize"
                     " --substrate=smm --model=semisync";

  const auto plain = run_command(stdout_only(campaign));
  ASSERT_EQ(plain.status, 0) << plain.output;

  const auto interrupted = run_command(
      "SESP_STOP_AFTER=3 SESP_JOURNAL_FSYNC=0 " + campaign +
      " --journal=" + journal);
  ASSERT_EQ(interrupted.status, 75) << interrupted.output;

  CommandResult resumed;
  for (int i = 0; i < 50; ++i) {
    resumed = run_command(stdout_only(
        "SESP_JOURNAL_FSYNC=0 " + campaign + " --resume=" + journal));
    if (resumed.status != 75) break;
  }
  ASSERT_EQ(resumed.status, 0) << resumed.output;
  EXPECT_EQ(resumed.output, plain.output);

  // Resuming under a different configuration must be refused up front.
  const auto mismatch = run_command(
      kConformance + " --cases=11 --seed=5 --jobs=2 --no-minimize"
                     " --substrate=smm --model=semisync --resume=" + journal);
  EXPECT_EQ(mismatch.status, 2) << mismatch.output;
  EXPECT_NE(mismatch.output.find("different"), std::string::npos)
      << mismatch.output;
  std::remove(journal.c_str());
}

TEST(CliTest, BenchMergeSkipsTruncatedRecords) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/BENCH_merge_good.json";
  const std::string torn = dir + "/BENCH_merge_torn.json";
  const std::string out = dir + "/bench_results_test.json";
  const std::string record =
      "{\"schema\":\"sesp-bench/3\",\"bench\":\"unit\",\"ok\":true,"
      "\"rows\":[],\"notes\":{},\"metrics\":{}}";
  write_file(good, record);
  write_file(torn, record.substr(0, record.size() / 2));

  // Truncated-only blemish: skipped with a warning, distinct exit code 3.
  const auto warn = run_command(kBenchMerge + " --out=" + out + " " + good +
                                " " + torn);
  EXPECT_EQ(warn.status, 3) << warn.output;
  EXPECT_NE(warn.output.find("skipped truncated record"), std::string::npos)
      << warn.output;
  EXPECT_NE(warn.output.find("truncated: 1"), std::string::npos)
      << warn.output;

  // Clean inputs still exit 0; a malformed record still fails with 1.
  EXPECT_EQ(run_command(kBenchMerge + " --out=" + out + " " + good).status,
            0);
  const std::string bad = dir + "/BENCH_merge_bad.json";
  write_file(bad, "{\"schema\":\"other/1\"}");
  EXPECT_EQ(run_command(kBenchMerge + " --out=" + out + " " + good + " " +
                        bad).status,
            1);
  std::remove(good.c_str());
  std::remove(torn.c_str());
  std::remove(bad.c_str());
  std::remove(out.c_str());
}

TEST(CliTest, JournalInspectDescribesRecordsAndTornTail) {
  const std::string journal =
      ::testing::TempDir() + "/cli_inspect.journal";
  std::remove(journal.c_str());
  const std::string sweep =
      kCli + " --substrate=mpm --model=sporadic --adversary=worst"
             " --s=3 --n=3 --c1=1 --d1=1 --d2=4";
  const auto interrupted = run_command(
      "SESP_STOP_AFTER=2 SESP_JOURNAL_FSYNC=0 " + sweep +
      " --journal=" + journal);
  ASSERT_EQ(interrupted.status, 75) << interrupted.output;

  const auto human =
      run_command(kCli + " --journal-inspect=" + journal);
  EXPECT_EQ(human.status, 0) << human.output;
  EXPECT_NE(human.output.find("tool:"), std::string::npos) << human.output;
  EXPECT_NE(human.output.find("sesp_cli"), std::string::npos);
  EXPECT_NE(human.output.find("records:"), std::string::npos);
  EXPECT_NE(human.output.find("torn tail:"), std::string::npos);
  EXPECT_EQ(human.output.find("leases:"), std::string::npos) << human.output;

  const auto json =
      run_command(kCli + " --journal-inspect=" + journal + " --json");
  EXPECT_EQ(json.status, 0) << json.output;
  EXPECT_NE(json.output.find("\"schema\":\"sesp-journal-inspect/2\""),
            std::string::npos)
      << json.output;
  EXPECT_EQ(json.output.find("\"leases\""), std::string::npos)
      << json.output;
  // Parallel slots already in flight may still append after
  // SESP_STOP_AFTER=2 asks to stop, so the journal holds at least two
  // records.
  const std::size_t records = json.output.find("\"records\":");
  ASSERT_NE(records, std::string::npos) << json.output;
  EXPECT_GE(std::atoll(json.output.c_str() + records + 10), 2)
      << json.output;

  // Bare --json only modifies --journal-inspect; alone it is an error
  // (metric output stays --json=FILE).
  EXPECT_EQ(run_command(kCli + " --json").status, 2);
  // Inspecting a missing or headerless file is an error, not a crash.
  EXPECT_EQ(
      run_command(kCli + " --journal-inspect=/definitely/missing").status,
      2);
  std::remove(journal.c_str());
}

// The multi-process flags of older builds are gone: every tool rejects
// them as unknown options (exit 2) before any work runs.
TEST(CliTest, RemovedShardFlagsAreUnknownOptions) {
  for (const std::string& tool : {kCli, kAttack, kConformance}) {
    for (const std::string flag :
         {"--shard-dir=/tmp/nope_sd", "--workers=2", "--worker-id=0",
          "--lease-ms=100", "--shard-restarts=1"}) {
      const auto r = run_command(tool + " " + flag);
      EXPECT_EQ(r.status, 2) << tool << " " << flag << "\n" << r.output;
      EXPECT_NE(r.output.find("unknown option"), std::string::npos)
          << tool << " " << flag << "\n" << r.output;
    }
  }
}

// A journal written by an older build's multi-process mode holds "L" lease
// lines. Every tool refuses it with a structured error (exit 2) instead of
// replaying a partial slot set or appending after bytes it cannot parse.
TEST(CliTest, LeaseFrameJournalsExitTwo) {
  const std::string journal = ::testing::TempDir() + "/cli_lease.journal";
  write_file(journal,
             "sesp-journal/1 tool=sesp_cli config=0123456789abcdef\n"
             "L 0 mpm_degradation 0 1 1792399450145 claim f7a529967ced7708\n");
  for (const std::string& command :
       {kCli + " --journal-inspect=" + journal,
        kCli + " --journal-inspect=" + journal + " --json",
        kCli + " --substrate=mpm --model=sporadic --s=4 --n=4 --degradation"
               " --resume=" + journal,
        kAttack + " --construction=semisync-sm --alg=too-few-steps:2"
                  " --s=4 --n=8 --c1=1 --c2=12 --resume=" + journal,
        kConformance + " --cases=2 --resume=" + journal}) {
    const auto r = run_command(command);
    EXPECT_EQ(r.status, 2) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("shard lease frame (written by a sharded run; "
                            "not resumable)"),
              std::string::npos)
        << command << "\n" << r.output;
    // A refused resume names the journal once.
    if (command.find("--resume=") != std::string::npos) {
      EXPECT_NE(r.output.find("cannot resume: " + journal + ": shard lease"),
                std::string::npos)
          << command << "\n" << r.output;
      EXPECT_EQ(r.output.find(journal), r.output.rfind(journal))
          << command << "\n" << r.output;
    }
  }
  std::remove(journal.c_str());
}

// A frame length near SIZE_MAX once wrapped the loader's bounds check and
// aborted the process. Such a frame is a torn tail: inspect reports it, and
// --resume drops it and completes to the plain run's stdout.
TEST(CliTest, OversizedFrameLengthIsATornTail) {
  const std::string journal = ::testing::TempDir() + "/cli_oversized.journal";
  std::remove(journal.c_str());
  const std::string sweep =
      kCli + " --substrate=mpm --model=sporadic --adversary=worst"
             " --s=3 --n=3 --c1=1 --d1=1 --d2=4 --jobs=1";
  const auto plain = run_command(stdout_only(sweep));
  ASSERT_EQ(plain.status, 0) << plain.output;
  ASSERT_EQ(run_command("SESP_STOP_AFTER=2 SESP_JOURNAL_FSYNC=0 " + sweep +
                        " --journal=" + journal)
                .status,
            75);
  std::string text;
  {
    std::ifstream in(journal, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // SIZE_MAX minus the payload offset: payload_at + size + 3 wraps to 2.
  const std::string line_head = "S st 0 ";
  const std::string line_tail = " 0123456789abcdef\n";
  const std::size_t payload_at =
      text.size() + line_head.size() + 20 + line_tail.size();
  const std::string size = std::to_string(SIZE_MAX - payload_at);
  ASSERT_EQ(size.size(), 20u);
  write_file(journal, text + line_head + size + line_tail);

  const auto inspect = run_command(kCli + " --journal-inspect=" + journal);
  EXPECT_EQ(inspect.status, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("torn tail:   1 record(s) dropped"),
            std::string::npos)
      << inspect.output;
  const auto resumed = run_command(
      stdout_only("SESP_JOURNAL_FSYNC=0 " + sweep + " --resume=" + journal));
  EXPECT_EQ(resumed.status, 0) << resumed.output;
  EXPECT_EQ(resumed.output, plain.output);
  std::remove(journal.c_str());
}

// Profiling must never disturb report bytes (docs/observability.md
// "Profiling"): --profile at any --jobs value leaves stdout byte-identical
// to the unprofiled run. The profile table itself rides on stderr.
TEST(CliTest, ProfiledRunsKeepStdoutByteIdentical) {
  const std::string sweep =
      kCli + " --substrate=mpm --model=sporadic --adversary=worst"
             " --s=3 --n=3 --c1=1 --d1=1 --d2=4";
  const auto plain = run_command(stdout_only(sweep));
  ASSERT_EQ(plain.status, 0) << plain.output;

  for (const std::string jobs : {" --jobs=1", " --jobs=2", " --jobs=8"}) {
    const auto profiled =
        run_command(stdout_only(sweep + jobs + " --profile"));
    EXPECT_EQ(profiled.status, 0) << profiled.output;
    EXPECT_EQ(profiled.output, plain.output) << "jobs variant:" << jobs;
  }

  // With stderr kept, the per-phase table appears (and only there).
  const auto noisy = run_command(sweep + " --profile");
  EXPECT_EQ(noisy.status, 0) << noisy.output;
  EXPECT_NE(noisy.output.find("profile (phase / count"), std::string::npos)
      << noisy.output;
}

TEST(CliTest, TraceDumpParsesBack) {
  const std::string trace = ::testing::TempDir() + "/sesp_cli_test_trace.txt";
  const auto r = run_command(
      kCli + " --substrate=mpm --model=sporadic --s=3 --n=3 --c1=1 --d1=1"
             " --d2=4 --adversary=lockstep --dump-trace=" + trace);
  ASSERT_EQ(r.status, 0) << r.output;
  std::FILE* f = std::fopen(trace.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[16] = {};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  EXPECT_EQ(std::string(header).rfind("sesp-trace", 0), 0u);
  std::fclose(f);
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace sesp
