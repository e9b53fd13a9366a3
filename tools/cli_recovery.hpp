#pragma once

// Shared --journal / --resume / --task-deadline / --task-retries handling
// for the command-line tools (docs/robustness.md). RecoveryScope builds the
// checkpoint journal (fresh or resumed), validates that a resumed journal
// really belongs to this tool and configuration, and installs a
// recovery::Supervisor (with SIGINT/SIGTERM draining) for the duration of
// main() — every supervised sweep underneath checkpoints per-slot results
// without any signature plumbing in the tools themselves.
//
// Exit protocol: flag/journal errors are usage errors (exit 2, before any
// work runs); a drained interrupt exits recovery::kExitInterrupted (75,
// EX_TEMPFAIL) after a stderr resume hint, with all completed slots
// durable in the journal. Recovery chatter goes to stderr only, so the
// stdout of a resumed run is byte-comparable to an uninterrupted run's.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "cli_flags.hpp"
#include "recovery/journal.hpp"
#include "recovery/supervisor.hpp"

namespace sesp {

struct RecoveryOptions {
  std::string journal;  // --journal=FILE: start a fresh checkpoint journal
  std::string resume;   // --resume=FILE: replay an existing journal
  recovery::TaskPolicy policy;

  // Returns true when `key` (with `value` from a --key=value split) is one
  // of the recovery flags; parse loops try this before their own keys.
  bool consume(const std::string& key, const std::string& value) {
    if (key == "--journal") journal = value;
    else if (key == "--resume") resume = value;
    else if (key == "--task-deadline")
      policy.deadline_seconds = flag_value<double>(key, value);
    else if (key == "--task-retries")
      policy.max_retries = flag_value<int>(key, value);
    else return false;
    return true;
  }

  static void usage(std::ostream& os) {
    os << "  --journal=FILE               checkpoint completed sweep slots\n"
          "  --resume=FILE                resume from FILE's checkpoints\n"
          "  --task-deadline=SECONDS      per-task wall-clock budget (0=off;\n"
          "                               overruns retry, then fail cleanly)\n"
          "  --task-retries=N             extra attempts per failing task\n";
  }
};

class RecoveryScope {
 public:
  // `config_digest` fingerprints every result-affecting option of the run
  // (not --jobs, not observability/output flags): a journal only replays
  // into the identical sweep it was written by.
  RecoveryScope(const RecoveryOptions& opt, const std::string& tool,
                std::uint64_t config_digest) {
    std::unique_ptr<recovery::RunJournal> journal;
    if (!opt.journal.empty() && !opt.resume.empty()) {
      std::cerr << "--journal and --resume are mutually exclusive\n";
      error_ = true;
      return;
    }

    if (!opt.resume.empty()) {
      std::string error;
      journal = recovery::RunJournal::open_resume(opt.resume, &error);
      if (!journal) {
        // open_resume's error already names the journal file.
        std::cerr << "cannot resume: " << error << "\n";
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
    if (supervisor_->journal())
      std::cerr << "; resume with --resume="
                << supervisor_->journal()->path();
    std::cerr << "\n";
    return recovery::kExitInterrupted;
  }

 private:
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

  bool error_ = false;
  std::unique_ptr<recovery::Supervisor> supervisor_;
};

}  // namespace sesp
