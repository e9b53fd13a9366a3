// End-to-end tests of the command-line tools, exercised as real
// subprocesses (paths injected by CMake): every substrate/model combination
// runs admissibly, certificates round-trip between sesp_attack and
// sesp_cli, and usage errors exit with status 2.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

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
const std::string kShard = SESP_SHARD_PATH;
const std::string kPerf = SESP_PERF_PATH;
const std::string kTraceMerge = SESP_TRACE_MERGE_PATH;

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
        kConformance + " --cases=abc", kShard + " --workers=x",
        kPerf + " check --window=x"}) {
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
      "{\"schema\":\"sesp-bench/1\",\"bench\":\"unit\",\"ok\":true,"
      "\"wall_seconds\":0.1,\"steps\":10,\"steps_per_sec\":100,\"runs\":1,"
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

// Sharded execution end to end (docs/robustness.md "Sharded execution"):
// real worker processes lease disjoint slot ranges through a shared shard
// directory, and the coordinator's merged replay prints a stdout
// byte-identical to the plain run — with and without a worker SIGKILLed
// mid-sweep.
TEST(CliTest, ShardedSweepMatchesPlainRunEvenUnderSigkill) {
  const std::string sweep =
      kCli + " --substrate=mpm --model=sporadic --adversary=worst"
             " --s=3 --n=3 --c1=1 --d1=1 --d2=4 --jobs=2";
  const auto plain = run_command(stdout_only(sweep));
  ASSERT_EQ(plain.status, 0) << plain.output;

  // Coordinator mode: the tool spawns its own workers and replays the
  // merge.
  const std::string dir1 = ::testing::TempDir() + "/cli_shard_coord";
  run_command("rm -rf " + dir1);
  const auto coord = run_command(stdout_only(
      "SESP_JOURNAL_FSYNC=0 " + sweep + " --shard-dir=" + dir1 +
      " --workers=3"));
  EXPECT_EQ(coord.status, 0) << coord.output;
  EXPECT_EQ(coord.output, plain.output);

  // Chaos harness: SIGKILL one worker mid-sweep; survivors steal its
  // ranges and the final replay is still byte-identical.
  const std::string dir2 = ::testing::TempDir() + "/cli_shard_kill";
  run_command("rm -rf " + dir2);
  const auto chaos = run_command(stdout_only(
      "SESP_JOURNAL_FSYNC=0 " + kShard + " --shard-dir=" + dir2 +
      " --workers=3 --kill-after=2 --kill-signal=KILL --kill-worker=1"
      " -- " + sweep));
  EXPECT_EQ(chaos.status, 0) << chaos.output;
  EXPECT_EQ(chaos.output, plain.output);

  // The standalone merge of the same shard directory is deterministic.
  const auto merge = run_command(kShard + " merge --shard-dir=" + dir2);
  EXPECT_EQ(merge.status, 0) << merge.output;
  EXPECT_NE(merge.output.find("merged"), std::string::npos) << merge.output;

  run_command("rm -rf " + dir1 + " " + dir2);
}

TEST(CliTest, JournalInspectDescribesRecordsAndLeases) {
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

  const auto json =
      run_command(kCli + " --journal-inspect=" + journal + " --json");
  EXPECT_EQ(json.status, 0) << json.output;
  EXPECT_NE(json.output.find("\"schema\":\"sesp-journal-inspect/1\""),
            std::string::npos)
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

TEST(CliTest, ShardFlagValidationExitsTwo) {
  // Worker/coordinator flags require --shard-dir and vice versa.
  EXPECT_EQ(run_command(kCli + " --workers=2").status, 2);
  EXPECT_EQ(run_command(kCli + " --worker-id=0").status, 2);
  EXPECT_EQ(run_command(kCli + " --shard-dir=/tmp/nope_sd").status, 2);
  // Sharding and single-file journaling are mutually exclusive, as are the
  // two shard roles.
  EXPECT_EQ(run_command(kCli + " --shard-dir=/tmp/nope_sd --workers=2"
                               " --journal=/tmp/nope.journal").status,
            2);
  EXPECT_EQ(run_command(kCli + " --shard-dir=/tmp/nope_sd --workers=2"
                               " --worker-id=0").status,
            2);
  // sesp_shard itself: no tool command after -- is a usage error.
  EXPECT_EQ(run_command(kShard + " --shard-dir=/tmp/nope_sd").status, 2);
  EXPECT_EQ(run_command(kShard + " --bogus").status, 2);
}

// Profiling must never disturb report bytes (docs/observability.md
// "Profiling"): --profile at any --jobs value, and across a sharded
// 3-worker run, leaves stdout byte-identical to the unprofiled run. The
// profile table itself rides on stderr.
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

  const std::string dir = ::testing::TempDir() + "/cli_profile_shard";
  run_command("rm -rf " + dir);
  const auto sharded = run_command(stdout_only(
      "SESP_JOURNAL_FSYNC=0 " + sweep + " --profile --jobs=2 --shard-dir=" +
      dir + " --workers=3"));
  EXPECT_EQ(sharded.status, 0) << sharded.output;
  EXPECT_EQ(sharded.output, plain.output);
  run_command("rm -rf " + dir);
}

// Cross-process trace aggregation end to end (docs/observability.md "Trace
// aggregation"): a sharded run leaves per-participant trace JSONL files in
// the shard directory, and sesp_trace_merge folds them into one Chrome
// trace-event document with a pid lane per participant.
TEST(CliTest, TraceMergeFoldsCoordinatorAndWorkerTraces) {
  const std::string dir = ::testing::TempDir() + "/cli_trace_merge";
  run_command("rm -rf " + dir);
  const auto coord = run_command(stdout_only(
      "SESP_JOURNAL_FSYNC=0 " + kCli +
      " --substrate=mpm --model=sporadic --adversary=worst"
      " --s=3 --n=3 --c1=1 --d1=1 --d2=4 --trace-events=trace.jsonl"
      " --shard-dir=" + dir + " --workers=3"));
  ASSERT_EQ(coord.status, 0) << coord.output;

  const std::string merged = dir + "/merged_trace.json";
  const auto merge =
      run_command(kTraceMerge + " --shard-dir=" + dir + " --out=" + merged);
  ASSERT_EQ(merge.status, 0) << merge.output;
  EXPECT_NE(merge.output.find("merged"), std::string::npos) << merge.output;

  std::ifstream in(merged);
  ASSERT_TRUE(in.good()) << merged;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = obs::parse_json(buf.str(), &error);
  ASSERT_TRUE(doc) << error;
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->array.size(), 0u);

  // One process_name metadata lane per participant, distinct pids, and the
  // coordinator's worker-lifecycle instants all survive the merge.
  int lanes = 0;
  bool saw_coordinator = false, saw_worker = false, saw_spawn = false;
  for (const obs::JsonValue& ev : events->array) {
    const obs::JsonValue* name = ev.find("name");
    if (!name) continue;
    if (name->string == "process_name") {
      ++lanes;
      const std::string label = ev.find("args")->find("name")->string;
      saw_coordinator = saw_coordinator || label == "coordinator";
      saw_worker = saw_worker || label.rfind("worker-", 0) == 0;
    }
    saw_spawn = saw_spawn || name->string == "shard.worker.spawn";
  }
  EXPECT_EQ(lanes, 4) << buf.str().substr(0, 400);
  EXPECT_TRUE(saw_coordinator);
  EXPECT_TRUE(saw_worker);
  EXPECT_TRUE(saw_spawn);

  // Merging an empty directory is an error, not an empty document.
  const std::string empty_dir = ::testing::TempDir() + "/cli_trace_empty";
  run_command("rm -rf " + empty_dir + " && mkdir -p " + empty_dir);
  EXPECT_EQ(run_command(kTraceMerge + " --shard-dir=" + empty_dir).status,
            2);
  run_command("rm -rf " + dir + " " + empty_dir);
}

// The bench-history regression gate end to end (docs/observability.md
// "Bench history & regression gate"): the self-test proves the gate flags
// an injected 2x slowdown, and record/check round-trip through a real
// ledger file — steady history passes, a slow newest entry fails.
TEST(CliTest, PerfGateSelfTestAndRecordCheckRoundTrip) {
  const auto self_test = run_command(kPerf + " self-test");
  EXPECT_EQ(self_test.status, 0) << self_test.output;
  EXPECT_NE(self_test.output.find("[OK]"), std::string::npos)
      << self_test.output;

  const std::string dir = ::testing::TempDir();
  const std::string history = dir + "/cli_perf_history.jsonl";
  std::remove(history.c_str());

  // A missing ledger never gates.
  const auto fresh = run_command(kPerf + " check --history=" + history);
  EXPECT_EQ(fresh.status, 0) << fresh.output;

  const auto results_doc = [&](double rate) {
    return "{\"schema\":\"sesp-bench-results/1\",\"benches\":[{"
           "\"schema\":\"sesp-bench/1\",\"bench\":\"unit\",\"ok\":true,"
           "\"wall_seconds\":1.0,\"steps\":1000,\"steps_per_sec\":" +
           std::to_string(rate) +
           ",\"runs\":1,\"rows\":[],\"notes\":{},\"metrics\":{}}]}";
  };
  const std::string results = dir + "/cli_perf_results.json";
  for (const double rate : {1000.0, 1020.0, 990.0, 1010.0}) {
    write_file(results, results_doc(rate));
    const auto rec = run_command(kPerf + " record --results=" + results +
                                 " --history=" + history +
                                 " --commit=test");
    ASSERT_EQ(rec.status, 0) << rec.output;
  }
  const auto steady = run_command(kPerf + " check --history=" + history);
  EXPECT_EQ(steady.status, 0) << steady.output;
  EXPECT_NE(steady.output.find("[ OK ]"), std::string::npos)
      << steady.output;

  // Inject a 2x slowdown; the gate must exit nonzero and say why.
  write_file(results, results_doc(500.0));
  ASSERT_EQ(run_command(kPerf + " record --results=" + results +
                        " --history=" + history + " --commit=test")
                .status,
            0);
  const auto slow = run_command(kPerf + " check --history=" + history);
  EXPECT_EQ(slow.status, 1) << slow.output;
  EXPECT_NE(slow.output.find("[FAIL]"), std::string::npos) << slow.output;

  // Usage errors keep the distinct exit code.
  EXPECT_EQ(run_command(kPerf + " record").status, 2);
  EXPECT_EQ(run_command(kPerf + " --bogus").status, 2);
  std::remove(results.c_str());
  std::remove(history.c_str());
}

// The sim-core floor inside self-test: the newest full-mode "faults" entry
// must hold >= 5x the seeded first entry (docs/performance.md).
TEST(CliTest, PerfSelfTestHoldsTheSimCoreFloor) {
  const std::string history =
      ::testing::TempDir() + "/cli_perf_floor_history.jsonl";
  const auto faults_line = [](double rate) {
    return "{\"schema\":\"sesp-perf/1\",\"bench\":\"faults\","
           "\"commit\":\"t\",\"recorded_unix_ms\":0,\"quick\":false,"
           "\"ok\":true,\"wall_seconds\":1.0,\"steps\":1000,"
           "\"steps_per_sec\":" +
           std::to_string(rate) + ",\"runs\":1,\"profile\":{}}\n";
  };

  // Newest >= 5x seeded: passes and says so.
  write_file(history, faults_line(1.0e6) + faults_line(5.5e6));
  auto r = run_command(kPerf + " self-test --history=" + history);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("sim-core floor"), std::string::npos) << r.output;

  // Newest below the floor: self-test fails.
  write_file(history, faults_line(1.0e6) + faults_line(4.0e6));
  r = run_command(kPerf + " self-test --history=" + history);
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("[FAIL] sim-core floor"), std::string::npos)
      << r.output;

  // A single-entry (or absent) ledger skips the floor rather than failing.
  write_file(history, faults_line(1.0e6));
  r = run_command(kPerf + " self-test --history=" + history);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("[SKIP] sim-core floor"), std::string::npos)
      << r.output;
  std::remove(history.c_str());

  // And the repo ledger contract itself: a quick-flag flip away from all
  // priors reports "no baseline" instead of a bare short-series pass.
  const std::string flip =
      ::testing::TempDir() + "/cli_perf_flip_history.jsonl";
  std::string text;
  for (const double rate : {1.0e6, 1.01e6, 0.99e6, 1.0e6})
    text += faults_line(rate);
  text +=
      "{\"schema\":\"sesp-perf/1\",\"bench\":\"faults\",\"commit\":\"t\","
      "\"recorded_unix_ms\":0,\"quick\":true,\"ok\":true,"
      "\"wall_seconds\":1.0,\"steps\":1000,\"steps_per_sec\":300000.0,"
      "\"runs\":1,\"profile\":{}}\n";
  write_file(flip, text);
  r = run_command(kPerf + " check --history=" + flip);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("no baseline"), std::string::npos) << r.output;
  std::remove(flip.c_str());
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
