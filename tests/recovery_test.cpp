// The crash-safe supervised-execution contracts (docs/robustness.md):
//
//  1. Codec: payload key=value framing round-trips arbitrary bytes, and the
//     reserved task-failure payload survives encode/decode.
//  2. Journal: append/open_resume round-trips records, tolerates a torn
//     tail, and refuses a different tool or configuration.
//  3. Supervisor: replayed slots never recompute; throwing and
//     deadline-overrunning slots retry and then become structured
//     TaskFailure payloads, never aborts; SESP_STOP_AFTER-style stops skip
//     pending slots.
//  4. Kill-and-resume determinism: every sweep driver, hard-interrupted at
//     randomized checkpoints and resumed any number of times at any job
//     count, produces a report identical to an uninterrupted serial run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/exhaustive.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "conformance/harness.hpp"
#include "recovery/journal.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"
#include "sim/experiment.hpp"
#include "support/test_support.hpp"

namespace sesp {
namespace {

using test_support::JobsGuard;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- payload codec ----------------------------------------------------------

TEST(PayloadTest, RoundTripsEscapedBytes) {
  recovery::PayloadWriter w;
  w.put("plain", "value");
  w.put("newlines", "a\nb\r\nc");
  w.put("backslash", "C:\\path\\n not a newline");
  w.put("equals", "k=v=w");
  w.put("empty", "");
  w.put_int("neg", -42);
  w.put_uint("big", 0xFFFFFFFFFFFFFFFFULL);
  w.put_bool("yes", true);
  w.put_bool("no", false);

  const recovery::PayloadReader r(w.str());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.get("plain"), "value");
  EXPECT_EQ(r.get("newlines"), "a\nb\r\nc");
  EXPECT_EQ(r.get("backslash"), "C:\\path\\n not a newline");
  EXPECT_EQ(r.get("equals"), "k=v=w");
  EXPECT_TRUE(r.has("empty"));
  EXPECT_EQ(r.get("empty"), "");
  EXPECT_EQ(r.get_int("neg", 0), -42);
  EXPECT_EQ(r.get_uint("big", 0), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_TRUE(r.get_bool("yes", false));
  EXPECT_FALSE(r.get_bool("no", true));
}

TEST(PayloadTest, MissingKeysFallBack) {
  recovery::PayloadWriter w;
  w.put("present", "x");
  const recovery::PayloadReader r(w.str());
  EXPECT_FALSE(r.has("absent"));
  EXPECT_EQ(r.get("absent", "fallback"), "fallback");
  EXPECT_EQ(r.get_int("absent", 7), 7);
  EXPECT_TRUE(r.get_bool("absent", true));
}

TEST(PayloadTest, TaskFailureRoundTripsAndRejectsLookalikes) {
  recovery::TaskFailure f;
  f.kind = recovery::TaskFailure::Kind::kDeadline;
  f.attempts = 3;
  f.detail = "slot 7 took 2.5s\nsecond line";
  const std::string payload = recovery::encode_task_failure(f);

  const auto decoded = recovery::decode_task_failure(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, recovery::TaskFailure::Kind::kDeadline);
  EXPECT_EQ(decoded->attempts, 3);
  EXPECT_EQ(decoded->detail, f.detail);
  EXPECT_NE(decoded->to_string().find("deadline"), std::string::npos);

  // Ordinary payloads — including ones whose first key merely extends the
  // reserved marker — must not decode as failures.
  recovery::PayloadWriter ordinary;
  ordinary.put("label", "run 3");
  EXPECT_FALSE(recovery::decode_task_failure(ordinary.str()).has_value());
  recovery::PayloadWriter lookalike;
  lookalike.put("__task_failureX", "1");
  EXPECT_FALSE(recovery::decode_task_failure(lookalike.str()).has_value());
}

// --- journal ----------------------------------------------------------------

TEST(JournalTest, AppendAndResumeRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal = recovery::RunJournal::create(path, "unit", 0xDEADBEEF,
                                                &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    // Raw payloads exercise the framing, including embedded "." lines and
    // trailing newlines the loader must not confuse with the terminator.
    EXPECT_TRUE(journal->append("stage_a", 0, "k=v\nline2"));
    EXPECT_TRUE(journal->append("stage_a", 2, "one\n.\ntwo\n"));
    EXPECT_TRUE(journal->append("stage_b", 0, ""));
    EXPECT_EQ(journal->records(), 3);
  }
  auto resumed = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_TRUE(resumed->matches("unit", 0xDEADBEEF));
  EXPECT_FALSE(resumed->matches("other", 0xDEADBEEF));
  EXPECT_FALSE(resumed->matches("unit", 0xDEADBEF0));
  EXPECT_EQ(resumed->records(), 3);
  EXPECT_EQ(resumed->dropped_on_load(), 0);
  ASSERT_NE(resumed->lookup("stage_a", 0), nullptr);
  EXPECT_EQ(*resumed->lookup("stage_a", 0), "k=v\nline2");
  ASSERT_NE(resumed->lookup("stage_a", 2), nullptr);
  EXPECT_EQ(*resumed->lookup("stage_a", 2), "one\n.\ntwo\n");
  ASSERT_NE(resumed->lookup("stage_b", 0), nullptr);
  EXPECT_EQ(*resumed->lookup("stage_b", 0), "");
  EXPECT_EQ(resumed->lookup("stage_a", 1), nullptr);
  std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsDroppedIntactPrefixSurvives) {
  const std::string path = temp_path("journal_torn.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal =
        recovery::RunJournal::create(path, "unit", 1, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    ASSERT_TRUE(journal->append("s", 0, "payload zero"));
    ASSERT_TRUE(journal->append("s", 1, "payload one"));
    ASSERT_TRUE(journal->append("s", 2, "payload two"));
  }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Chop at several depths into the last record: frame line, payload,
  // terminator. Every cut must resume to the intact two-record prefix.
  const std::size_t last_frame = text.rfind("S s 2");
  ASSERT_NE(last_frame, std::string::npos);
  for (const std::size_t keep :
       {last_frame + 3, last_frame + 20, text.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text.substr(0, keep);
    }
    auto resumed = recovery::RunJournal::open_resume(path, &error);
    ASSERT_NE(resumed, nullptr) << "keep=" << keep << ": " << error;
    EXPECT_EQ(resumed->records(), 2) << "keep=" << keep;
    EXPECT_EQ(resumed->dropped_on_load(), 1) << "keep=" << keep;
    ASSERT_NE(resumed->lookup("s", 1), nullptr);
    EXPECT_EQ(*resumed->lookup("s", 1), "payload one");
    EXPECT_EQ(resumed->lookup("s", 2), nullptr);
    // The reopened journal keeps accepting appends after the repair.
    resumed->set_fsync(false);
    EXPECT_TRUE(resumed->append("s", 2, "payload two again"));
  }
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileAndCorruptHeaderAreErrors) {
  std::string error;
  EXPECT_EQ(recovery::RunJournal::open_resume(
                temp_path("definitely_missing.journal"), &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  const std::string path = temp_path("journal_bad_header.journal");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not-a-journal-header\n";
  }
  EXPECT_EQ(recovery::RunJournal::open_resume(path, &error), nullptr);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A frame length near SIZE_MAX once wrapped the bounds check
// (payload_at + size + 3) and threw std::out_of_range out of the loader.
// Every such length is a torn tail: the intact prefix survives.
TEST(JournalTest, OversizedFrameLengthIsATornTail) {
  const std::string path = temp_path("journal_oversized.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal = recovery::RunJournal::create(path, "unit", 3, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    ASSERT_TRUE(journal->append("st", 0, "payload zero"));
  }
  const std::string intact = read_file(path);
  const std::string head = "S st 1 ";
  const std::string tail = " 0123456789abcdef\n";
  // Lengths are 20 digits wide, so the payload offset is known up front.
  const std::size_t payload_at =
      intact.size() + head.size() + 20 + tail.size();
  for (const std::size_t back : {0u, 1u, 2u}) {
    const std::string size = std::to_string(SIZE_MAX - payload_at - back);
    ASSERT_EQ(size.size(), 20u);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << intact << head << size << tail;
    }
    const recovery::JournalSnapshot snap =
        recovery::read_journal_snapshot(path);
    ASSERT_TRUE(snap.ok) << snap.error;
    EXPECT_EQ(snap.records.size(), 1u) << "back=" << back;
    EXPECT_EQ(snap.dropped, 1) << "back=" << back;
    auto resumed = recovery::RunJournal::open_resume(path, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->records(), 1) << "back=" << back;
    EXPECT_EQ(resumed->dropped_on_load(), 1) << "back=" << back;
  }
  std::remove(path.c_str());
}

// open_resume() once appended after a torn tail, so the next load stopped
// at the same tear and lost every record written since. The tail is now cut
// off first: tear, resume while appending, and a second load sees it all.
TEST(JournalTest, ResumeAfterTornTailKeepsLaterAppends) {
  const std::string path = temp_path("journal_torn_resume.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal = recovery::RunJournal::create(path, "unit", 4, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    ASSERT_TRUE(journal->append("s", 0, "payload zero"));
    ASSERT_TRUE(journal->append("s", 1, "payload one"));
  }
  const std::string intact = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "S s 2 115 bb27";  // a torn frame line, no newline
  }
  {
    auto resumed = recovery::RunJournal::open_resume(path, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->dropped_on_load(), 1);
    EXPECT_EQ(read_file(path), intact);  // the tear is gone before appends
    resumed->set_fsync(false);
    ASSERT_TRUE(resumed->append("s", 2, "payload two"));
    ASSERT_TRUE(resumed->append("s", 3, "payload three"));
  }
  auto again = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_EQ(again->dropped_on_load(), 0);
  EXPECT_EQ(again->records(), 4);
  ASSERT_NE(again->lookup("s", 3), nullptr);
  EXPECT_EQ(*again->lookup("s", 3), "payload three");
  std::remove(path.c_str());
}

// Older builds' multi-process mode wrote "L" lease lines into each worker's
// journal. Such a file holds only that worker's share of the slots, so it is
// rejected with a load error — never read as a torn tail, which would
// recompute every slot and append behind bytes the next load cannot parse.
TEST(JournalTest, LeaseFramesFromOlderBuildsAreRejected) {
  const std::string path = temp_path("journal_lease.journal");
  // A real line from an older build's worker journal.
  const std::string lease =
      "L 0 mpm_degradation 0 1 1792399450145 claim f7a529967ced7708\n";
  std::string error;
  std::string with_slot;
  {
    std::remove(path.c_str());
    auto journal = recovery::RunJournal::create(path, "sesp_cli", 5, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    ASSERT_TRUE(journal->append("mpm_degradation", 0, "payload 0"));
    with_slot = read_file(path);
  }
  const std::string header = with_slot.substr(0, with_slot.find('\n') + 1);
  for (const std::string& text :
       {header + lease, with_slot + lease, header + lease + with_slot.substr(
                                                             header.size())}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    const recovery::JournalSnapshot snap =
        recovery::read_journal_snapshot(path);
    EXPECT_FALSE(snap.ok);
    EXPECT_NE(snap.error.find("shard lease frame (written by a sharded run; "
                              "not resumable)"),
              std::string::npos)
        << snap.error;
    EXPECT_TRUE(snap.records.empty());
    error.clear();
    EXPECT_EQ(recovery::RunJournal::open_resume(path, &error), nullptr);
    EXPECT_NE(error.find("shard lease frame"), std::string::npos) << error;
    EXPECT_EQ(read_file(path), text);  // a refused journal is left as is
  }
  std::remove(path.c_str());
}

// --- supervisor -------------------------------------------------------------

std::unique_ptr<recovery::RunJournal> fresh_journal(const std::string& path,
                                                    std::uint64_t digest) {
  std::remove(path.c_str());
  std::string error;
  auto journal = recovery::RunJournal::create(path, "recovery_test", digest,
                                              &error);
  EXPECT_NE(journal, nullptr) << error;
  if (journal) journal->set_fsync(false);
  return journal;
}

TEST(SupervisorTest, ReplayedSlotsNeverRecompute) {
  const std::string path = temp_path("supervisor_replay.journal");
  {
    recovery::Supervisor sup(fresh_journal(path, 2), {});
    sup.for_each_slot(
        "stage", 6,
        [](std::size_t i) { return "value " + std::to_string(i); },
        [](std::size_t, const std::string&) {}, 2);
    EXPECT_EQ(sup.stats().slots_executed, 6);
  }
  std::string error;
  auto journal = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  journal->set_fsync(false);
  recovery::Supervisor sup(std::move(journal), {});
  std::vector<std::string> applied(6);
  sup.for_each_slot(
      "stage", 6,
      [](std::size_t i) -> std::string {
        ADD_FAILURE() << "slot " << i << " recomputed on resume";
        return "";
      },
      [&](std::size_t i, const std::string& payload) {
        applied[i] = payload;
      },
      2);
  const recovery::SupervisorStats stats = sup.stats();
  EXPECT_EQ(stats.slots_replayed, 6);
  EXPECT_EQ(stats.slots_executed, 0);
  for (std::size_t i = 0; i < applied.size(); ++i)
    EXPECT_EQ(applied[i], "value " + std::to_string(i));
  std::remove(path.c_str());
}

TEST(SupervisorTest, SameStageNameGetsDistinctJournalNamespaces) {
  const std::string path = temp_path("supervisor_dedup.journal");
  {
    recovery::Supervisor sup(fresh_journal(path, 3), {});
    sup.for_each_slot(
        "sweep", 2, [](std::size_t i) { return "first " + std::to_string(i); },
        [](std::size_t, const std::string&) {}, 1);
    sup.for_each_slot(
        "sweep", 2,
        [](std::size_t i) { return "second " + std::to_string(i); },
        [](std::size_t, const std::string&) {}, 1);
  }
  std::string error;
  auto journal = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  recovery::Supervisor sup(std::move(journal), {});
  std::vector<std::string> first(2), second(2);
  sup.for_each_slot(
      "sweep", 2,
      [](std::size_t) -> std::string { return "MISS"; },
      [&](std::size_t i, const std::string& p) { first[i] = p; }, 1);
  sup.for_each_slot(
      "sweep", 2,
      [](std::size_t) -> std::string { return "MISS"; },
      [&](std::size_t i, const std::string& p) { second[i] = p; }, 1);
  EXPECT_EQ(first[0], "first 0");
  EXPECT_EQ(first[1], "first 1");
  EXPECT_EQ(second[0], "second 0");
  EXPECT_EQ(second[1], "second 1");
  std::remove(path.c_str());
}

TEST(SupervisorTest, ThrowingSlotRetriesThenSucceeds) {
  recovery::TaskPolicy policy;
  policy.max_retries = 2;
  policy.backoff_ms = 1;
  recovery::Supervisor sup(nullptr, policy);
  std::vector<std::atomic<int>> attempts(4);
  std::vector<std::string> applied(4);
  sup.for_each_slot(
      "flaky", 4,
      [&](std::size_t i) -> std::string {
        if (attempts[i].fetch_add(1) == 0)
          throw std::runtime_error("first attempt fails");
        return "ok " + std::to_string(i);
      },
      [&](std::size_t i, const std::string& p) { applied[i] = p; }, 2);
  const recovery::SupervisorStats stats = sup.stats();
  EXPECT_EQ(stats.retries, 4);
  EXPECT_EQ(stats.failures, 0);
  for (std::size_t i = 0; i < applied.size(); ++i) {
    EXPECT_EQ(applied[i], "ok " + std::to_string(i));
    EXPECT_FALSE(recovery::decode_task_failure(applied[i]).has_value());
  }
}

TEST(SupervisorTest, ExhaustedRetriesBecomeStructuredFailure) {
  recovery::TaskPolicy policy;
  policy.max_retries = 1;
  policy.backoff_ms = 1;
  recovery::Supervisor sup(nullptr, policy);
  std::string applied;
  sup.for_each_slot(
      "doomed", 1,
      [](std::size_t) -> std::string {
        throw std::runtime_error("always broken");
      },
      [&](std::size_t, const std::string& p) { applied = p; }, 1);
  const auto failure = recovery::decode_task_failure(applied);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, recovery::TaskFailure::Kind::kException);
  EXPECT_EQ(failure->attempts, 2);
  EXPECT_EQ(failure->detail, "always broken");
  EXPECT_EQ(sup.stats().failures, 1);
  EXPECT_EQ(sup.stats().retries, 1);
  EXPECT_FALSE(sup.interrupted());  // isolation, not interruption
}

TEST(SupervisorTest, DeadlineOverrunBecomesStructuredFailure) {
  recovery::TaskPolicy policy;
  policy.deadline_seconds = 1e-6;
  policy.max_retries = 1;
  policy.backoff_ms = 1;
  recovery::Supervisor sup(nullptr, policy);
  std::string applied;
  sup.for_each_slot(
      "slow", 1,
      [](std::size_t) -> std::string {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return "finished anyway";
      },
      [&](std::size_t, const std::string& p) { applied = p; }, 1);
  const auto failure = recovery::decode_task_failure(applied);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, recovery::TaskFailure::Kind::kDeadline);
  EXPECT_EQ(failure->attempts, 2);
  EXPECT_GE(sup.stats().deadline_exceeded, 1);
}

TEST(SupervisorTest, RetryBackoffIsDeterministicJitteredAndCapped) {
  recovery::TaskPolicy policy;
  policy.backoff_ms = 100;

  // The first attempt never waits; retries do.
  EXPECT_EQ(recovery::retry_backoff_ms(policy, 7, 3, 0), 0);
  EXPECT_EQ(recovery::retry_backoff_ms(policy, 7, 3, 1), 0);

  // Pure function of (policy, digest, slot, attempt): identical across
  // resumes and job counts — no clock, no global state.
  for (std::int32_t attempt = 2; attempt <= 6; ++attempt) {
    const std::int64_t a = recovery::retry_backoff_ms(policy, 7, 3, attempt);
    const std::int64_t b = recovery::retry_backoff_ms(policy, 7, 3, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    // Base doubles per retry, capped at 1s; jitter adds at most 25%.
    const std::int64_t base = std::min<std::int64_t>(
        policy.backoff_ms << (attempt - 2), 1000);
    EXPECT_GE(a, base) << "attempt " << attempt;
    EXPECT_LE(a, base + base / 4) << "attempt " << attempt;
  }

  // Distinct slots and configs decorrelate: at least one of a handful of
  // neighbours lands on a different jitter.
  const std::int64_t here = recovery::retry_backoff_ms(policy, 7, 3, 2);
  bool differs = false;
  for (std::size_t slot = 0; slot < 16 && !differs; ++slot)
    differs = recovery::retry_backoff_ms(policy, 7, slot, 2) != here ||
              recovery::retry_backoff_ms(policy, 8, slot, 2) != here;
  EXPECT_TRUE(differs);

  // Tiny bases stay exact (jitter range collapses to base/4 = 0).
  policy.backoff_ms = 1;
  EXPECT_EQ(recovery::retry_backoff_ms(policy, 7, 0, 2), 1);
}

TEST(SupervisorTest, StopAfterSkipsPendingSlots) {
  const std::string path = temp_path("supervisor_stop.journal");
  recovery::Supervisor sup(fresh_journal(path, 4), {});
  sup.set_stop_after(3);
  std::vector<bool> applied(10, false);
  sup.for_each_slot(
      "stage", 10,
      [](std::size_t i) { return std::to_string(i); },
      [&](std::size_t i, const std::string&) { applied[i] = true; }, 1);
  EXPECT_TRUE(sup.interrupted());
  const recovery::SupervisorStats stats = sup.stats();
  EXPECT_EQ(stats.slots_executed, 3);
  EXPECT_EQ(stats.slots_skipped, 7);
  // Serial execution stops in order: the first three slots applied, the
  // rest pending for the resume.
  for (std::size_t i = 0; i < applied.size(); ++i)
    EXPECT_EQ(applied[i], i < 3) << "slot " << i;
  std::remove(path.c_str());
}

// --- kill-and-resume determinism for every sweep driver ---------------------
//
// run_to_completion() hard-interrupts the driver after `stop_after`
// checkpoints, then resumes from the journal — repeatedly, until a round
// finishes uninterrupted — and returns that final result. Each round hands
// its supervisor to the driver through the RunContext `run` receives. The
// byte-identity contract says the result must equal the plain serial run
// for any job count and any interruption cadence.

template <typename Result>
Result run_to_completion(const std::string& name, std::int64_t stop_after,
                         const std::function<Result(const RunContext&)>& run,
                         int* interrupted_rounds = nullptr) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  for (int round = 0; round < 500; ++round) {
    std::string error;
    auto journal =
        round == 0
            ? recovery::RunJournal::create(path, "recovery_test", 99, &error)
            : recovery::RunJournal::open_resume(path, &error);
    if (!journal) {
      ADD_FAILURE() << "round " << round << ": " << error;
      return Result{};
    }
    journal->set_fsync(false);
    recovery::Supervisor sup(std::move(journal), {});
    sup.set_stop_after(stop_after);
    Result result = run(RunContext{nullptr, &sup});
    if (!sup.interrupted()) {
      if (interrupted_rounds) *interrupted_rounds = round;
      std::remove(path.c_str());
      return result;
    }
  }
  ADD_FAILURE() << name << " never completed";
  std::remove(path.c_str());
  return Result{};
}

TEST(KillResumeTest, WorstCaseFamiliesAreByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto mpm_constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(2), Duration(3));
  const auto smm_constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(2));
  SemiSyncMpmFactory mpm_factory;
  SemiSyncSmmFactory smm_factory;

  JobsGuard serial(1);
  const WorstCase mpm_ref =
      mpm_worst_case(spec, mpm_constraints, mpm_factory, 4);
  const WorstCase smm_ref =
      smm_worst_case(spec, smm_constraints, smm_factory, 4);
  ASSERT_GT(mpm_ref.runs, 0);

  for (const int jobs : {1, 2, 8}) {
    for (const std::int64_t stop_after : {1, 3}) {
      JobsGuard guard(jobs);
      int rounds = 0;
      const WorstCase mpm_got = run_to_completion<WorstCase>(
          "kr_mpm_worst.journal", stop_after,
          [&](const RunContext& ctx) {
            return mpm_worst_case(spec, mpm_constraints, mpm_factory, 4,
                                  kWorstCaseSeed, {}, ctx);
          },
          &rounds);
      EXPECT_EQ(mpm_got, mpm_ref)
          << "jobs=" << jobs << " stop_after=" << stop_after;
      EXPECT_GT(rounds, 0) << "interruption hook never fired";
      EXPECT_EQ(run_to_completion<WorstCase>(
                    "kr_smm_worst.journal", stop_after,
                    [&](const RunContext& ctx) {
                      return smm_worst_case(spec, smm_constraints,
                                            smm_factory, 4, kWorstCaseSeed,
                                            {}, ctx);
                    }),
                smm_ref)
          << "jobs=" << jobs << " stop_after=" << stop_after;
    }
  }
}

TEST(KillResumeTest, DegradationGridIsByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(2), Duration(3));
  SemiSyncMpmFactory factory;

  JobsGuard serial(1);
  const DegradationReport reference =
      mpm_degradation(spec, constraints, factory);
  ASSERT_FALSE(reference.cells.empty());

  for (const int jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(run_to_completion<DegradationReport>(
                  "kr_degradation.journal", 2,
                  [&](const RunContext& ctx) {
                    return mpm_degradation(spec, constraints, factory,
                                           {0, 1, 2}, {0, 5, 20},
                                           kDegradationSeed, {}, ctx);
                  }),
              reference)
        << "jobs=" << jobs;
  }
}

TEST(KillResumeTest, ChaosSweepDigestIsByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(3), Duration(4));
  SemiSyncMpmFactory factory;
  MpmRunLimits limits;
  limits.max_steps = 20'000;

  JobsGuard serial(1);
  const ChaosReport reference =
      mpm_chaos_sweep(spec, constraints, factory, 16, 0xC4A05ULL, limits);
  ASSERT_EQ(reference.runs, 16);

  for (const int jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(run_to_completion<ChaosReport>(
                  "kr_chaos.journal", 3,
                  [&](const RunContext& ctx) {
                    return mpm_chaos_sweep(spec, constraints, factory, 16,
                                           0xC4A05ULL, limits, ctx);
                  }),
              reference)
        << "jobs=" << jobs;
  }
}

TEST(KillResumeTest, ExhaustiveEnumerationIsByteIdentical) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(0), Duration(2));
  SporadicMpmFactory factory;
  const std::vector<Duration> gaps{Duration(1), Duration(2)};
  const std::vector<Duration> delays{Duration(0), Duration(1), Duration(2)};

  // Both a complete walk and a budget-truncated one: the truncation point
  // reconstructs the serial order, so it must survive interruption too.
  for (const std::int64_t budget : {500'000, 50}) {
    JobsGuard serial(1);
    const ExhaustiveResult reference =
        explore_mpm(spec, constraints, factory, gaps, delays, budget);
    for (const int jobs : {1, 2, 8}) {
      JobsGuard guard(jobs);
      EXPECT_EQ(run_to_completion<ExhaustiveResult>(
                    "kr_exhaustive.journal", 2,
                    [&](const RunContext& ctx) {
                      return explore_mpm(spec, constraints, factory, gaps,
                                         delays, budget, ctx);
                    }),
                reference)
          << "jobs=" << jobs << " budget=" << budget;
    }
  }
}

TEST(KillResumeTest, ConformanceCampaignIsByteIdentical) {
  conformance::ConformanceConfig config;
  config.cases_per_cell = 5;
  config.seed = 11;
  config.minimize = false;

  JobsGuard serial(1);
  config.jobs = 1;
  const conformance::ConformanceReport reference =
      conformance::run_conformance(config);
  ASSERT_GT(reference.total_cases, 0);

  for (const int jobs : {1, 2, 8}) {
    config.jobs = jobs;
    const conformance::ConformanceReport got =
        run_to_completion<conformance::ConformanceReport>(
            "kr_conformance.journal", 4,
            [&](const RunContext& ctx) {
              return conformance::run_conformance(config, ctx);
            });
    EXPECT_EQ(got.digest, reference.digest) << "jobs=" << jobs;
    EXPECT_EQ(got.summary(), reference.summary()) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace sesp
