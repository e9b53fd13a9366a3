#pragma once

// Shared --journal / --resume / --task-deadline / --task-retries and
// sharded-execution (--workers / --worker-id / --shard-dir) handling for
// the command-line tools (docs/robustness.md). RecoveryScope builds the
// checkpoint journal (fresh or resumed), validates that a resumed journal
// really belongs to this tool and configuration, and installs a
// recovery::Supervisor (with SIGINT/SIGTERM draining) for the duration of
// main() — every supervised sweep underneath checkpoints per-slot results
// without any signature plumbing in the tools themselves.
//
// Sharded modes (docs/robustness.md "Sharded execution"):
//
//   --shard-dir=DIR --worker-id=K   this process is shard worker K: it
//       journals into DIR/worker-K.journal, leases slot ranges through
//       DIR/claims/, and steals expired leases from dead peers.
//   --shard-dir=DIR --workers=N     coordinator: re-exec this command N
//       times as workers (spawn, monitor, restart on interrupt/crash),
//       merge the worker journals into DIR/merged.journal, then replay
//       the merge — so the coordinator's stdout is byte-identical to a
//       single-process run's.
//
// Exit protocol: flag/journal/manifest errors are usage errors (exit 2,
// before any work runs); a drained interrupt exits
// recovery::kExitInterrupted (75, EX_TEMPFAIL) after a stderr resume
// hint, with all completed slots durable in the journal. Recovery chatter
// goes to stderr only, so the stdout of a resumed or sharded run is
// byte-comparable to an uninterrupted run's.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli_flags.hpp"
#include "obs/observer.hpp"
#include "recovery/journal.hpp"
#include "recovery/supervisor.hpp"
#include "shard/launch.hpp"
#include "shard/shard.hpp"

namespace sesp {

struct RecoveryOptions {
  std::string journal;  // --journal=FILE: start a fresh checkpoint journal
  std::string resume;   // --resume=FILE: replay an existing journal
  recovery::TaskPolicy policy;
  std::string shard_dir;           // --shard-dir=DIR: shared shard state
  std::int32_t workers = 0;        // --workers=N: coordinator mode
  std::int32_t worker_id = -1;     // --worker-id=K: worker mode
  std::int64_t lease_ms = 10'000;  // --lease-ms=N: range lease length
  std::int32_t shard_restarts = 100;  // --shard-restarts=N: restart budget

  // Returns true when `key` (with `value` from a --key=value split) is one
  // of the recovery flags; parse loops try this before their own keys.
  bool consume(const std::string& key, const std::string& value) {
    if (key == "--journal") journal = value;
    else if (key == "--resume") resume = value;
    else if (key == "--task-deadline")
      policy.deadline_seconds = flag_value<double>(key, value);
    else if (key == "--task-retries")
      policy.max_retries = flag_value<int>(key, value);
    else if (key == "--shard-dir") shard_dir = value;
    else if (key == "--workers") workers = flag_value<int>(key, value);
    else if (key == "--worker-id") worker_id = flag_value<int>(key, value);
    else if (key == "--lease-ms")
      lease_ms = flag_value<std::int64_t>(key, value);
    else if (key == "--shard-restarts")
      shard_restarts = flag_value<int>(key, value);
    else return false;
    return true;
  }

  static void usage(std::ostream& os) {
    os << "  --journal=FILE               checkpoint completed sweep slots\n"
          "  --resume=FILE                resume from FILE's checkpoints\n"
          "  --task-deadline=SECONDS      per-task wall-clock budget (0=off;\n"
          "                               overruns retry, then fail cleanly)\n"
          "  --task-retries=N             extra attempts per failing task\n"
          "  --shard-dir=DIR              shared directory for sharded"
          " sweeps\n"
          "  --workers=N                  spawn N shard workers and merge\n"
          "                               their journals (coordinator)\n"
          "  --worker-id=K                act as shard worker K\n"
          "  --lease-ms=N                 range lease length (default"
          " 10000)\n"
          "  --shard-restarts=N           worker restart budget (default"
          " 100)\n";
  }
};

class RecoveryScope {
 public:
  // `config_digest` fingerprints every result-affecting option of the run
  // (not --jobs, not observability/output flags): a journal only replays
  // into the identical sweep it was written by. argc/argv are needed only
  // by the coordinator mode, which re-execs this command per worker.
  RecoveryScope(const RecoveryOptions& opt, const std::string& tool,
                std::uint64_t config_digest, int argc = 0,
                char** argv = nullptr) {
    std::unique_ptr<recovery::RunJournal> journal;
    if (!validate(opt)) return;

    if (opt.worker_id >= 0) {
      journal = open_worker(opt, tool, config_digest);
      if (!journal) return;
    } else if (opt.workers > 0) {
      journal = run_coordinator(opt, tool, config_digest, argc, argv);
      if (!journal && !interrupted_after_launch_) return;
    } else if (!opt.resume.empty()) {
      std::string error;
      journal = recovery::RunJournal::open_resume(opt.resume, &error);
      if (!journal) {
        std::cerr << "cannot resume from " << opt.resume << ": " << error
                  << "\n";
        error_ = true;
        return;
      }
      if (!journal->matches(tool, config_digest)) {
        report_mismatch(opt.resume, *journal, tool, config_digest);
        error_ = true;
        return;
      }
      std::cerr << "resuming from " << opt.resume << ": "
                << journal->records() << " checkpointed slot(s)";
      if (journal->dropped_on_load() > 0)
        std::cerr << ", " << journal->dropped_on_load()
                  << " torn record(s) dropped";
      std::cerr << "\n";
    } else if (!opt.journal.empty()) {
      std::string error;
      journal = recovery::RunJournal::create(opt.journal, tool,
                                             config_digest, &error);
      if (!journal) {
        std::cerr << "cannot create journal " << opt.journal << ": " << error
                  << "\n";
        error_ = true;
        return;
      }
    }
    supervisor_ =
        std::make_unique<recovery::Supervisor>(std::move(journal),
                                               opt.policy);
    if (shard_) supervisor_->set_shard(shard_.get());
    if (interrupted_after_launch_) supervisor_->request_stop();
    supervisor_->install_signal_handlers();
    recovery::Supervisor::install(supervisor_.get());
  }

  ~RecoveryScope() {
    if (supervisor_) recovery::Supervisor::install(nullptr);
  }

  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

  // Flag/journal mismatch — the tool exits 2 without running anything.
  bool error() const noexcept { return error_; }

  // Folds the interrupt outcome into the tool's exit status: when the run
  // was drained, prints the resume hint and returns kExitInterrupted
  // instead of `status`.
  int finish(int status) const {
    if (!supervisor_ || !supervisor_->interrupted()) return status;
    const recovery::SupervisorStats stats = supervisor_->stats();
    std::cerr << "interrupted: "
              << (stats.slots_replayed + stats.slots_executed)
              << " slot(s) checkpointed, " << stats.slots_skipped
              << " pending";
    if (coordinator_ || shard_)
      std::cerr << "; re-run the same command to resume the sharded sweep";
    else if (supervisor_->journal())
      std::cerr << "; resume with --resume="
                << supervisor_->journal()->path();
    std::cerr << "\n";
    return recovery::kExitInterrupted;
  }

 private:
  bool validate(const RecoveryOptions& opt) {
    const bool sharded = opt.workers > 0 || opt.worker_id >= 0;
    if (!opt.journal.empty() && !opt.resume.empty()) {
      std::cerr << "--journal and --resume are mutually exclusive\n";
    } else if (opt.workers > 0 && opt.worker_id >= 0) {
      std::cerr << "--workers and --worker-id are mutually exclusive\n";
    } else if (sharded && opt.shard_dir.empty()) {
      std::cerr << "--workers/--worker-id require --shard-dir\n";
    } else if (!opt.shard_dir.empty() && !sharded) {
      std::cerr << "--shard-dir requires --workers or --worker-id\n";
    } else if (sharded && (!opt.journal.empty() || !opt.resume.empty())) {
      std::cerr << "sharded runs journal into --shard-dir; --journal/"
                   "--resume do not apply\n";
    } else {
      return true;
    }
    error_ = true;
    return false;
  }

  static void report_mismatch(const std::string& path,
                              const recovery::RunJournal& journal,
                              const std::string& tool,
                              std::uint64_t config_digest) {
    std::cerr << "journal " << path << " belongs to a different "
              << (journal.tool() != tool ? "tool" : "configuration")
              << " (journal " << journal.tool() << '/'
              << recovery::fnv1a_hex(journal.config_digest())
              << ", this run " << tool << '/'
              << recovery::fnv1a_hex(config_digest) << ")\n";
  }

  // Worker mode: journal into <dir>/worker-<id>.journal (created on the
  // first run, resumed across restarts) and attach a ShardContext.
  std::unique_ptr<recovery::RunJournal> open_worker(
      const RecoveryOptions& opt, const std::string& tool,
      std::uint64_t config_digest) {
    std::string error;
    if (!shard::ensure_shard_dir(opt.shard_dir, &error) ||
        !shard::ensure_manifest(opt.shard_dir, tool, config_digest,
                                &error)) {
      std::cerr << error << "\n";
      error_ = true;
      return nullptr;
    }
    const std::string path = opt.shard_dir + "/worker-" +
                             std::to_string(opt.worker_id) + ".journal";
    std::unique_ptr<recovery::RunJournal> journal;
    if (::access(path.c_str(), F_OK) == 0) {
      journal = recovery::RunJournal::open_resume(path, &error);
      if (!journal) {
        std::cerr << "cannot resume from " << path << ": " << error << "\n";
        error_ = true;
        return nullptr;
      }
      if (!journal->matches(tool, config_digest)) {
        report_mismatch(path, *journal, tool, config_digest);
        error_ = true;
        return nullptr;
      }
      std::cerr << "shard worker " << opt.worker_id << " resuming: "
                << journal->records() << " checkpointed slot(s)";
      if (journal->dropped_on_load() > 0)
        std::cerr << ", " << journal->dropped_on_load()
                  << " torn record(s) dropped";
      std::cerr << "\n";
    } else {
      journal =
          recovery::RunJournal::create(path, tool, config_digest, &error);
      if (!journal) {
        std::cerr << "cannot create journal " << path << ": " << error
                  << "\n";
        error_ = true;
        return nullptr;
      }
    }
    shard::ShardOptions sopt;
    sopt.dir = opt.shard_dir;
    sopt.worker_id = opt.worker_id;
    sopt.lease_ms = opt.lease_ms;
    shard_ = shard::ShardContext::open(sopt, &error);
    if (!shard_) {
      std::cerr << error << "\n";
      error_ = true;
      return nullptr;
    }
    return journal;
  }

  // Coordinator mode: spawn the workers (this same command, --workers
  // replaced by --worker-id), merge their journals, and return the merged
  // journal so main() replays the canonical report.
  std::unique_ptr<recovery::RunJournal> run_coordinator(
      const RecoveryOptions& opt, const std::string& tool,
      std::uint64_t config_digest, int argc, char** argv) {
    coordinator_ = true;
    std::string error;
    if (argc <= 0 || !argv) {
      std::cerr << "sharded coordinator mode needs the command line\n";
      error_ = true;
      return nullptr;
    }
    if (!shard::ensure_shard_dir(opt.shard_dir, &error) ||
        !shard::ensure_manifest(opt.shard_dir, tool, config_digest,
                                &error)) {
      std::cerr << error << "\n";
      error_ = true;
      return nullptr;
    }

    std::vector<std::string> command;
    command.push_back(shard::self_exe_path(argv[0]));
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--workers=", 0) == 0 || arg == "--workers") continue;
      command.push_back(arg);
    }

    shard::LaunchOptions lopt;
    lopt.dir = opt.shard_dir;
    lopt.workers = opt.workers;
    lopt.max_restarts = opt.shard_restarts;
    std::cerr << "shard: spawning " << opt.workers << " worker(s) in "
              << opt.shard_dir << "\n";
    const shard::LaunchResult launch = shard::run_workers(command, lopt);
    obs::Observer* const o = obs::default_observer();
    if (o && o->metrics)
      o->metrics->counter("shard.worker.restarts").inc(launch.restarts);
    if (o && o->trace) {
      // Replay the launch timeline (wall-clock stamped) into the
      // coordinator's trace so sesp_trace_merge can align worker lanes
      // against spawn/kill/restart instants.
      for (const shard::LaunchEvent& ev : launch.events)
        o->trace->instant_at(
            o->trace->ns_for_unix_ms(ev.unix_ms), "shard.worker." + ev.kind,
            "shard", obs::args_object({obs::arg_int("worker", ev.worker)}));
    }
    if (!launch.ok) {
      std::cerr << launch.error << "\n";
      error_ = true;
      return nullptr;
    }
    if (launch.interrupted) {
      // Workers drained; skip the merge-and-replay, exit 75 via finish().
      interrupted_after_launch_ = true;
      return nullptr;
    }

    const shard::MergeStats merge = shard::merge_shard_dir(opt.shard_dir);
    if (!merge.ok) {
      std::cerr << "shard merge failed: " << merge.error << "\n";
      error_ = true;
      return nullptr;
    }
    if (o && o->metrics)
      o->metrics->counter("shard.ranges.merged").inc(merge.ranges_done);
    if (o && o->trace)
      o->trace->instant("shard.merge", "shard",
                        obs::args_object(
                            {obs::arg_int("workers", merge.workers),
                             obs::arg_int("records", merge.records),
                             obs::arg_int("duplicates", merge.duplicates)}));
    std::cerr << "shard: merged " << merge.records << " record(s) from "
              << merge.workers << " worker journal(s)";
    if (launch.restarts > 0)
      std::cerr << ", " << launch.restarts << " restart(s)";
    if (merge.torn_dropped > 0)
      std::cerr << ", " << merge.torn_dropped << " torn record(s) dropped";
    std::cerr << "\n";

    auto journal = recovery::RunJournal::open_resume(merge.out_path, &error);
    if (!journal) {
      std::cerr << "cannot open merged journal: " << error << "\n";
      error_ = true;
      return nullptr;
    }
    if (!journal->matches(tool, config_digest)) {
      report_mismatch(merge.out_path, *journal, tool, config_digest);
      error_ = true;
      return nullptr;
    }
    return journal;
  }

  bool error_ = false;
  bool coordinator_ = false;
  bool interrupted_after_launch_ = false;
  std::unique_ptr<shard::ShardContext> shard_;
  std::unique_ptr<recovery::Supervisor> supervisor_;
};

}  // namespace sesp
