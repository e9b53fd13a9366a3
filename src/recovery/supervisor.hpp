#pragma once

// Supervised execution for the long-running sweep drivers
// (docs/robustness.md). A Supervisor wraps the slot fan-out of a sweep —
// worst-case families, degradation grids, chaos sweeps, the exhaustive
// enumerator's subtree walk, conformance campaigns — with three services:
//
//   * Checkpoint/resume. Each completed slot's result is encoded to a
//     payload string and appended to the RunJournal; on resume, journaled
//     slots replay by decoding the stored payload and only pending slots
//     re-execute (with their original (seed, slot) derivation, at any job
//     count). Both the fresh and the replayed path apply the *decoded*
//     payload, so the final report is a pure function of the payload bytes
//     — the mechanism behind the byte-identical-resume contract.
//
//   * Task isolation. A slot that throws is retried with exponential
//     backoff; a slot whose attempt overruns the (cooperative) wall-clock
//     deadline is likewise retried. When every attempt fails the slot's
//     payload becomes an encoded TaskFailure — a structured, SimError-style
//     outcome the driver folds into its report — never a process abort.
//     ArithmeticOverflow is not isolated: an instance whose exact times
//     leave int64 fails identically on every attempt, and folding it would
//     report the algorithm as failing. It propagates to the tool, which
//     rejects the instance (sesp_cli exit 2, sesp_serve BadRequest).
//
//   * Interrupt draining. install_signal_handlers() routes SIGINT/SIGTERM
//     into an async-signal-safe stop flag; pending slots are skipped, the
//     pool drains, completed slots are already durable in the journal, and
//     the tool exits with kExitInterrupted (75, EX_TEMPFAIL) after printing
//     a resume hint.
//
// The owner (a tool, the server's sweep executor) passes a supervisor to
// the one sweep it supervises in a RunContext (recovery/run_context.hpp).
//
// Deadlines are enforced cooperatively (checked when the attempt returns):
// slot functions are pure compute with simulator-level step/time watchdogs
// of their own, so a true hang is already bounded below; killing threads
// would forfeit determinism. Deadline/retry verdicts land in the journal,
// keeping resumed and uninterrupted runs byte-identical even when they
// fire.
//
// Env knobs: SESP_STOP_AFTER=N requests a stop at the N-th journal append —
// the interruption the kill-and-resume tests and the CI smoke job use (a
// fault-injection hook for the recovery layer itself). Slots already
// running at that append still finish and journal, so the number of
// checkpointed slots varies with scheduling; only the resumed report is
// byte-identical across runs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "recovery/journal.hpp"
#include "recovery/run_context.hpp"

namespace sesp::recovery {

// EX_TEMPFAIL: the run was interrupted but is resumable from the journal.
inline constexpr int kExitInterrupted = 75;

struct TaskPolicy {
  // 0 = no deadline. Checked when an attempt completes (cooperative).
  double deadline_seconds = 0.0;
  // Extra attempts after the first; 1 retry by default.
  std::int32_t max_retries = 1;
  // First backoff; doubles per retry, capped at 1s.
  std::int64_t backoff_ms = 25;
};

// Structured outcome of a slot whose every attempt failed. Travels through
// the journal as a reserved payload, so a resumed run folds the identical
// failure without re-running the task.
struct TaskFailure {
  enum class Kind : std::uint8_t { kException, kDeadline };
  Kind kind = Kind::kException;
  std::int32_t attempts = 0;
  std::string detail;

  // "task failure (exception, 2 attempts): ..." — the diagnostic string
  // drivers fold into their reports.
  std::string to_string() const;
};

std::string encode_task_failure(const TaskFailure& failure);
// Decodes a reserved task-failure payload; nullopt for ordinary payloads.
std::optional<TaskFailure> decode_task_failure(std::string_view payload);

// The delay before retry `attempt` (attempt 2 = first retry) of `slot`:
// policy.backoff_ms doubling per retry, capped at 1s, plus up to 25%
// jitter seeded deterministically from (config digest, slot, attempt) —
// never from the clock — so a retried slot backs off identically across
// resumes and job counts while distinct slots still decorrelate.
std::int64_t retry_backoff_ms(const TaskPolicy& policy,
                              std::uint64_t config_digest, std::size_t slot,
                              std::int32_t attempt);

struct SupervisorStats {
  std::int64_t slots_replayed = 0;
  std::int64_t slots_executed = 0;
  std::int64_t slots_skipped = 0;  // pending when the stop flag rose
  std::int64_t retries = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t failures = 0;  // slots that became TaskFailure payloads
};

class Supervisor {
 public:
  // The journal may be null: deadline/retry isolation and interrupt
  // draining still apply, results just aren't durable.
  explicit Supervisor(std::unique_ptr<RunJournal> journal,
                      TaskPolicy policy = {});
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  RunJournal* journal() noexcept { return journal_.get(); }
  SupervisorStats stats() const;

  // Routes SIGINT/SIGTERM into the stop flag for the supervisor's
  // lifetime; previous handlers are restored by the destructor.
  void install_signal_handlers();
  void request_stop() noexcept { stop_.store(true); }
  bool interrupted() const noexcept;

  // Interruption for tests: request a stop at the `n`-th journal append
  // (the SESP_STOP_AFTER env knob, read at construction; < 0 disables).
  // Slots already running then still finish and journal, so at least `n`
  // slots are checkpointed, not exactly `n`.
  void set_stop_after(std::int64_t n) noexcept { stop_after_ = n; }

  // The supervised counterpart of exec::parallel_for_each. For every slot
  // in [0, count): journaled slots replay via apply(slot, payload); pending
  // slots run compute(slot) under the retry/deadline policy on the pool,
  // append the payload to the journal, and then apply it serially in slot
  // order after the barrier. apply() always receives the encoded payload —
  // fresh or replayed, the driver decodes the same bytes. Slots skipped by
  // an interrupt get no apply; the caller checks interrupted() and treats
  // the fold as partial. The stage's recovery.* counters and journal
  // instants go to `observer` (may be null), from the calling thread.
  void for_each_slot(
      const std::string& stage_name, std::size_t count,
      const std::function<std::string(std::size_t)>& compute,
      const std::function<void(std::size_t, const std::string&)>& apply,
      int jobs = 0, obs::Observer* observer = nullptr);

 private:
  std::string unique_stage(const std::string& name);
  std::string run_attempts(
      std::size_t slot,
      const std::function<std::string(std::size_t)>& compute);
  void note_append();
  std::unique_ptr<RunJournal> journal_;
  TaskPolicy policy_;
  std::atomic<bool> stop_{false};
  std::int64_t stop_after_ = -1;
  std::atomic<std::int64_t> appends_{0};
  std::atomic<bool> journal_broken_{false};

  bool handlers_installed_ = false;
  void (*saved_sigint_)(int) = nullptr;
  void (*saved_sigterm_)(int) = nullptr;

  // Stage-name dedup: two sweeps of the same kind in one process get
  // distinct journal stages ("mpm_worst_case", "mpm_worst_case#2", ...) in
  // call order, which is deterministic because sweeps start from the
  // driving thread.
  std::map<std::string, int> stage_uses_;

  std::atomic<std::int64_t> slots_replayed_{0};
  std::atomic<std::int64_t> slots_executed_{0};
  std::atomic<std::int64_t> slots_skipped_{0};
  std::atomic<std::int64_t> retries_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<std::int64_t> failures_{0};
};

// The single sweep entry point the drivers call. Task i computes under the
// kExecTask profile scope with its own ObservationShard of ctx.observer
// (none is made without one). With ctx.supervisor the slots go through
// for_each_slot (journal replay, task policy, interrupt draining), else the
// same compute -> payload -> apply round trip runs directly on the pool.
// Either way shard i is merged and payload i applied in slot order, so
// supervised, resumed and plain runs produce byte-identical reports.
void supervised_sweep(
    const RunContext& ctx, const std::string& stage_name, std::size_t count,
    const std::function<std::string(std::size_t, obs::Observer*)>& compute,
    const std::function<void(std::size_t, const std::string&)>& apply,
    int jobs = 0);

}  // namespace sesp::recovery
