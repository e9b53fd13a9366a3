#include "recovery/supervisor.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include <sstream>

#include "exec/thread_pool.hpp"
#include "obs/observer.hpp"
#include "recovery/payload.hpp"
#include "util/ratio.hpp"

namespace sesp::recovery {

namespace {

// Async-signal-safe stop flag shared by the handlers and interrupted();
// the handler may run on any thread at any point, so it touches nothing
// but this.
volatile std::sig_atomic_t g_signal_stop = 0;

void signal_handler(int) { g_signal_stop = 1; }

Supervisor* g_current = nullptr;

std::int64_t stop_after_from_env() {
  const char* env = std::getenv("SESP_STOP_AFTER");
  if (!env || !*env) return -1;
  char* end = nullptr;
  const long long n = std::strtoll(env, &end, 10);
  return (end && *end == '\0' && n >= 0) ? n : -1;
}

constexpr char kFailureMarker[] = "__task_failure";

}  // namespace

std::string TaskFailure::to_string() const {
  const char* what = kind == Kind::kDeadline ? "deadline" : "exception";
  return std::string("task failure (") + what + ", " +
         std::to_string(attempts) +
         (attempts == 1 ? " attempt): " : " attempts): ") + detail;
}

std::string encode_task_failure(const TaskFailure& failure) {
  PayloadWriter w;
  w.put_bool(kFailureMarker, true);
  w.put(
      "kind",
      failure.kind == TaskFailure::Kind::kDeadline ? "deadline" : "exception");
  w.put_int("attempts", failure.attempts);
  w.put("detail", failure.detail);
  return w.str();
}

std::optional<TaskFailure> decode_task_failure(std::string_view payload) {
  // Cheap reject before the full parse: ordinary payloads never start with
  // the reserved marker key.
  if (payload.rfind(kFailureMarker, 0) != 0) return std::nullopt;
  const PayloadReader r(payload);
  if (!r.get_bool(kFailureMarker, false)) return std::nullopt;
  TaskFailure f;
  f.kind = r.get("kind") == "deadline" ? TaskFailure::Kind::kDeadline
                                       : TaskFailure::Kind::kException;
  f.attempts = static_cast<std::int32_t>(r.get_int("attempts", 1));
  f.detail = r.get("detail");
  return f;
}

Supervisor::Supervisor(std::unique_ptr<RunJournal> journal, TaskPolicy policy)
    : journal_(std::move(journal)), policy_(policy) {
  stop_after_ = stop_after_from_env();
}

Supervisor::~Supervisor() {
  if (handlers_installed_) {
    std::signal(SIGINT, saved_sigint_);
    std::signal(SIGTERM, saved_sigterm_);
  }
  if (g_current == this) g_current = nullptr;
}

Supervisor* Supervisor::install(Supervisor* supervisor) noexcept {
  Supervisor* previous = g_current;
  g_current = supervisor;
  return previous;
}

Supervisor* Supervisor::current() noexcept { return g_current; }

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.slots_replayed = slots_replayed_.load();
  s.slots_executed = slots_executed_.load();
  s.slots_skipped = slots_skipped_.load();
  s.retries = retries_.load();
  s.deadline_exceeded = deadline_exceeded_.load();
  s.failures = failures_.load();
  return s;
}

void Supervisor::install_signal_handlers() {
  if (handlers_installed_) return;
  g_signal_stop = 0;
  saved_sigint_ = std::signal(SIGINT, signal_handler);
  saved_sigterm_ = std::signal(SIGTERM, signal_handler);
  handlers_installed_ = true;
}

bool Supervisor::interrupted() const noexcept {
  return stop_.load() || g_signal_stop != 0;
}

std::string Supervisor::unique_stage(const std::string& name) {
  // Journal frames are space-delimited; stage identifiers come from the
  // drivers and never contain whitespace, but normalize defensively.
  std::string clean = name;
  for (char& c : clean)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  const int use = ++stage_uses_[clean];
  return use == 1 ? clean : clean + "#" + std::to_string(use);
}

void Supervisor::note_append() {
  const std::int64_t n = appends_.fetch_add(1) + 1;
  if (stop_after_ >= 0 && n >= stop_after_) request_stop();
}

std::int64_t retry_backoff_ms(const TaskPolicy& policy,
                              std::uint64_t config_digest, std::size_t slot,
                              std::int32_t attempt) {
  if (attempt <= 1) return 0;
  std::int64_t base = policy.backoff_ms;
  for (std::int32_t i = 2; i < attempt; ++i) base *= 2;
  if (base > 1000) base = 1000;
  if (base <= 0) return 0;
  std::ostringstream os;
  os << fnv1a_hex(config_digest) << '|' << slot << '|' << attempt;
  const std::uint64_t jitter =
      fnv1a(os.str()) % (static_cast<std::uint64_t>(base) / 4 + 1);
  return base + static_cast<std::int64_t>(jitter);
}

std::string Supervisor::run_attempts(
    std::size_t slot,
    const std::function<std::string(std::size_t)>& compute) {
  const std::int32_t max_attempts =
      1 + (policy_.max_retries > 0 ? policy_.max_retries : 0);
  TaskFailure failure;
  failure.attempts = max_attempts;
  for (std::int32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      retries_.fetch_add(1);
      const std::int64_t backoff = retry_backoff_ms(
          policy_, journal_ ? journal_->config_digest() : 0, slot, attempt);
      if (backoff > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    const auto start = std::chrono::steady_clock::now();
    try {
      std::string payload = compute(slot);
      if (policy_.deadline_seconds > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (elapsed > policy_.deadline_seconds) {
          deadline_exceeded_.fetch_add(1);
          failure.kind = TaskFailure::Kind::kDeadline;
          failure.detail = "slot " + std::to_string(slot) + " took " +
                           std::to_string(elapsed) + "s (deadline " +
                           std::to_string(policy_.deadline_seconds) + "s)";
          continue;
        }
      }
      return payload;
    } catch (const ArithmeticOverflow&) {
      throw;  // the instance, not the attempt: see Task isolation
    } catch (const std::exception& e) {
      failure.kind = TaskFailure::Kind::kException;
      failure.detail = e.what();
    } catch (...) {
      failure.kind = TaskFailure::Kind::kException;
      failure.detail = "non-standard exception";
    }
  }
  failures_.fetch_add(1);
  return encode_task_failure(failure);
}

void Supervisor::for_each_slot(
    const std::string& stage_name, std::size_t count,
    const std::function<std::string(std::size_t)>& compute,
    const std::function<void(std::size_t, const std::string&)>& apply,
    int jobs) {
  const std::string stage = unique_stage(stage_name);

  // Replay phase (serial): journaled slots recover their stored payloads.
  // Nothing is applied yet — application happens in one pass, in global
  // slot order, after the compute barrier, so a resumed run folds slots in
  // exactly the order an uninterrupted run does even when journaled and
  // freshly-computed slots interleave.
  std::vector<std::optional<std::string>> payloads(count);
  std::vector<std::size_t> pending;
  std::int64_t replayed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string* stored =
        journal_ ? journal_->lookup(stage, i) : nullptr;
    if (stored) {
      payloads[i].emplace(*stored);
      ++replayed;
    } else {
      pending.push_back(i);
    }
  }
  slots_replayed_.fetch_add(replayed);

  // Compute phase: pending slots fan out over the pool under the task
  // policy; each completed payload is journaled before the barrier so an
  // interrupt (or crash) after this point never loses it.
  const std::int64_t retries_before = retries_.load();
  const std::int64_t deadline_before = deadline_exceeded_.load();
  const std::int64_t failures_before = failures_.load();
  exec::parallel_for_each(
      pending.size(),
      [&](std::size_t k) {
        const std::size_t slot = pending[k];
        if (interrupted()) return;
        std::string payload = run_attempts(slot, compute);
        // A failed append degrades to journal-less execution, never aborts;
        // the first failing worker warns once.
        if (journal_ && !journal_broken_.load()) {
          if (journal_->append(stage, slot, payload)) {
            note_append();
          } else if (!journal_broken_.exchange(true)) {
            std::fprintf(stderr,
                         "warning: journal append failed at %s; "
                         "continuing without checkpoints\n",
                         journal_->path().c_str());
          }
        }
        payloads[slot].emplace(std::move(payload));
      },
      jobs);

  // Apply phase (serial, global slot order): decoded state lands
  // identically for every job count and every interrupt/resume history.
  std::int64_t executed = 0, skipped = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (payloads[i]) apply(i, *payloads[i]);
  }
  for (const std::size_t slot : pending) {
    if (payloads[slot]) {
      ++executed;
    } else {
      ++skipped;
    }
  }
  slots_executed_.fetch_add(executed);
  slots_skipped_.fetch_add(skipped);

  // Observability from the driving thread only (the shard rules of
  // docs/observability.md): per-stage counters plus a journal.stage
  // instant; journal.interrupt marks a drained stop.
  obs::Observer* const o = obs::default_observer();
  if (o && o->metrics) {
    o->metrics->counter("recovery.slots.replayed").inc(replayed);
    o->metrics->counter("recovery.slots.executed").inc(executed);
    o->metrics->counter("recovery.slots.skipped").inc(skipped);
    o->metrics->counter("recovery.task.retries")
        .inc(retries_.load() - retries_before);
    o->metrics->counter("recovery.task.deadline_exceeded")
        .inc(deadline_exceeded_.load() - deadline_before);
    o->metrics->counter("recovery.task.failures")
        .inc(failures_.load() - failures_before);
  }
  if (o && o->trace) {
    o->trace->instant("journal.stage", "recovery",
                      obs::args_object(
                          {obs::arg_str("stage", stage),
                           obs::arg_int("replayed", replayed),
                           obs::arg_int("executed", executed),
                           obs::arg_int("skipped", skipped)}));
    if (interrupted())
      o->trace->instant("journal.interrupt", "recovery",
                        obs::args_object({obs::arg_str("stage", stage)}));
  }
}

Supervisor* current_for_sweep() noexcept {
  return exec::inside_pool_worker() ? nullptr : g_current;
}

void supervised_sweep(
    const std::string& stage_name, std::size_t count,
    const std::function<std::string(std::size_t)>& compute,
    const std::function<void(std::size_t, const std::string&)>& apply,
    int jobs) {
  if (Supervisor* sup = current_for_sweep()) {
    sup->for_each_slot(stage_name, count, compute, apply, jobs);
    return;
  }
  std::vector<std::string> payloads(count);
  exec::parallel_for_each(
      count, [&](std::size_t i) { payloads[i] = compute(i); }, jobs);
  for (std::size_t i = 0; i < count; ++i) apply(i, payloads[i]);
}

bool run_interrupted() noexcept {
  return g_current != nullptr && g_current->interrupted();
}

}  // namespace sesp::recovery
