// sesp_shard — launcher and chaos harness for sharded sweeps
// (docs/robustness.md "Sharded execution").
//
// Run mode spawns N worker copies of any recovery-aware tool command,
// monitors them (restarting interrupted or killed workers), optionally
// injects one deterministic fault (SIGKILL/SIGTERM a chosen worker once
// the worker journals hold K records), merges the worker journals, and
// finally replays the merge in-process so stdout carries the canonical
// report — byte-identical to running the tool without sharding (each
// example is one command line):
//
//   sesp_shard --shard-dir=DIR --workers=3 --
//       sesp_cli --substrate=mpm --model=semisync --s=3 --n=3
//   sesp_shard --shard-dir=DIR --workers=3 --kill-after=2
//       --kill-signal=KILL --kill-worker=1 -- sesp_cli ...
//
// Merge mode folds an existing shard directory without running anything:
//
//   sesp_shard merge --shard-dir=DIR [--out=FILE]
//
// Exit status: run mode exits with the final replay's status (so 0/1 mean
// what the wrapped tool means by them); 2 on usage errors or a worker
// config failure; 75 (EX_TEMPFAIL) when the launcher was interrupted —
// re-run the same command to resume. Merge mode: 0 on success, 2 on
// errors.

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli_flags.hpp"
#include "obs/trace.hpp"
#include "recovery/supervisor.hpp"
#include "shard/launch.hpp"
#include "shard/shard.hpp"

namespace sesp {
namespace {

void usage(std::ostream& os) {
  os << "usage: sesp_shard [options] -- TOOL [tool options]\n"
        "       sesp_shard merge --shard-dir=DIR [--out=FILE]\n"
        "  --shard-dir=DIR              shared shard directory (required)\n"
        "  --workers=N                  worker processes (default 2)\n"
        "  --restarts=N                 worker restart budget (default"
        " 100)\n"
        "  --kill-after=K               once the worker journals hold K\n"
        "                               records, signal one worker\n"
        "  --kill-signal=KILL|TERM      fault signal (default KILL)\n"
        "  --kill-worker=I              which worker to signal (default"
        " 0)\n"
        "  --no-replay                  skip the final merged replay\n"
        "  --out=FILE                   merge mode: merged journal path\n";
}

struct Options {
  std::string dir;
  std::string out;
  std::int32_t workers = 2;
  std::int32_t restarts = 100;
  std::int64_t kill_after = -1;
  int kill_signo = SIGKILL;
  std::int32_t kill_worker = 0;
  bool merge_only = false;
  bool replay = true;
  std::vector<std::string> command;
};

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  int i = 1;
  if (i < argc && std::string(argv[i]) == "merge") {
    opt.merge_only = true;
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      for (++i; i < argc; ++i) opt.command.push_back(argv[i]);
      break;
    }
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--shard-dir") opt.dir = value;
    else if (key == "--workers") opt.workers = flag_value<int>(key, value);
    else if (key == "--restarts") opt.restarts = flag_value<int>(key, value);
    else if (key == "--kill-after")
      opt.kill_after = flag_value<std::int64_t>(key, value);
    else if (key == "--kill-worker")
      opt.kill_worker = flag_value<int>(key, value);
    else if (key == "--kill-signal") {
      if (value == "KILL") opt.kill_signo = SIGKILL;
      else if (value == "TERM") opt.kill_signo = SIGTERM;
      else {
        std::cerr << "unknown --kill-signal (want KILL or TERM)\n";
        return std::nullopt;
      }
    } else if (key == "--no-replay") opt.replay = false;
    else if (key == "--out") opt.out = value;
    else if (key == "--help" || key == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << key << "\n";
      return std::nullopt;
    }
  }
  if (opt.dir.empty()) {
    std::cerr << "--shard-dir is required\n";
    return std::nullopt;
  }
  if (!opt.merge_only && opt.command.empty()) {
    std::cerr << "no tool command (everything after --)\n";
    return std::nullopt;
  }
  return opt;
}

int run_merge(const Options& opt) {
  const shard::MergeStats merge = shard::merge_shard_dir(opt.dir, opt.out);
  if (!merge.ok) {
    std::cerr << "merge failed: " << merge.error << "\n";
    return 2;
  }
  std::cout << "merged " << merge.records << " record(s) from "
            << merge.workers << " worker journal(s) into " << merge.out_path
            << "\n"
            << "duplicates: " << merge.duplicates
            << "  ranges done: " << merge.ranges_done
            << "  lease events: " << merge.lease_events
            << "  torn dropped: " << merge.torn_dropped << "\n";
  return 0;
}

// Writes the launcher's own trace lane — the worker lifecycle timeline
// (spawn/kill/restart/exit instants, wall-clock stamped by run_workers)
// plus the merge summary — so sesp_trace_merge can fold it alongside the
// per-worker traces. Best-effort: a failed write only warns on stderr.
void write_coordinator_trace(const Options& opt, const obs::TraceSink& sink) {
  const std::string path = opt.dir + "/coordinator.trace.jsonl";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "sesp_shard: cannot write " << path << "\n";
    return;
  }
  sink.write_jsonl(out);
}

int run(const Options& opt) {
  std::string error;
  if (!shard::ensure_shard_dir(opt.dir, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  obs::TraceSink sink;

  // Workers get the tool command plus the shard flags; run_workers
  // appends each one's --worker-id. The manifest is created by whichever
  // worker arrives first (they all agree on tool + config digest).
  std::vector<std::string> command = opt.command;
  command.push_back("--shard-dir=" + opt.dir);

  shard::LaunchOptions lopt;
  lopt.dir = opt.dir;
  lopt.workers = opt.workers;
  lopt.max_restarts = opt.restarts;
  if (opt.kill_after >= 0) {
    lopt.kill.after_records = opt.kill_after;
    lopt.kill.signo = opt.kill_signo;
    lopt.kill.worker = opt.kill_worker;
  }
  std::cerr << "sesp_shard: spawning " << opt.workers << " worker(s) in "
            << opt.dir << "\n";
  const shard::LaunchResult launch = shard::run_workers(command, lopt);
  for (const shard::LaunchEvent& ev : launch.events)
    sink.instant_at(sink.ns_for_unix_ms(ev.unix_ms),
                    "shard.worker." + ev.kind, "shard",
                    obs::args_object({obs::arg_int("worker", ev.worker)}));
  if (!launch.ok) {
    write_coordinator_trace(opt, sink);
    std::cerr << launch.error << "\n";
    return 2;
  }
  if (launch.interrupted) {
    write_coordinator_trace(opt, sink);
    std::cerr << "sesp_shard: interrupted; re-run the same command to "
                 "resume\n";
    return recovery::kExitInterrupted;
  }
  std::cerr << "sesp_shard: workers done (" << launch.restarts
            << " restart(s), " << launch.kills << " fault(s) injected";
  if (launch.abandoned > 0)
    std::cerr << ", " << launch.abandoned << " abandoned";
  std::cerr << ")\n";

  const shard::MergeStats merge = shard::merge_shard_dir(opt.dir, opt.out);
  if (!merge.ok) {
    write_coordinator_trace(opt, sink);
    std::cerr << "merge failed: " << merge.error << "\n";
    return 2;
  }
  sink.instant("shard.merge", "shard",
               obs::args_object(
                   {obs::arg_int("workers", merge.workers),
                    obs::arg_int("records", merge.records),
                    obs::arg_int("duplicates", merge.duplicates)}));
  write_coordinator_trace(opt, sink);
  std::cerr << "sesp_shard: merged " << merge.records << " record(s) into "
            << merge.out_path << "\n";
  if (!opt.replay) return 0;

  // Final replay: the tool command again, resuming from the merged
  // journal, with our stdout — this prints the canonical report and its
  // exit status is the run's verdict.
  std::vector<std::string> replay = opt.command;
  replay.push_back("--resume=" + merge.out_path);
  std::vector<char*> argv;
  argv.reserve(replay.size() + 1);
  for (std::string& a : replay) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  // execv only returns on failure; try PATH resolution as a fallback.
  ::execvp(argv[0], argv.data());
  std::cerr << "cannot exec " << replay[0] << "\n";
  return 2;
}

}  // namespace
}  // namespace sesp

int main(int argc, char** argv) {
  const auto opt = sesp::parse(argc, argv);
  if (!opt) {
    sesp::usage(std::cerr);
    return 2;
  }
  if (opt->merge_only) return sesp::run_merge(*opt);
  return sesp::run(*opt);
}
