// sesp_perf — bench-history ledger and perf-regression gate
// (docs/observability.md "Bench history & regression gate").
//
//   sesp_perf record --results=bench_results.json \
//       [--history=bench_history.jsonl] [--commit=SHA] [--quick]
//   sesp_perf check [--history=bench_history.jsonl] [--window=N]
//       [--min-samples=N] [--min-drop=F] [--mad-mult=F]
//   sesp_perf self-test
//
// `record` appends one sesp-perf/1 line per bench embedded in the merged
// results document (append-only: history survives and `git log -p` reads
// as a perf trajectory). `check` compares the newest entry of every
// (bench, quick) series against the median of a rolling window of priors
// with a noise-aware threshold, prints one verdict line per series, and
// exits nonzero on any regression. `self-test` drives the gate against
// synthetic series — a steady one must pass and an injected 2x slowdown
// must be flagged — so CI can prove the gate itself works before trusting
// a green check; it also holds the sim-core floor: the newest full-mode
// "faults" ledger entry must stay >= 5x the seeded baseline
// (docs/performance.md).
//
// Exit status: 0 ok; 1 regression detected (check) or self-test failure;
// 2 usage/file errors. `check` on a missing or too-short history exits 0
// with a note — a fresh repo never fails its first CI run.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "obs/perf_history.hpp"

namespace sesp {
namespace {

void usage(std::ostream& os) {
  os << "usage: sesp_perf record --results=FILE [--history=FILE]\n"
        "                        [--commit=SHA] [--quick]\n"
        "       sesp_perf check [--history=FILE] [--window=N]\n"
        "                       [--min-samples=N] [--min-drop=F]\n"
        "                       [--mad-mult=F]\n"
        "       sesp_perf self-test [--history=FILE]\n"
        "  --results=FILE               merged bench_results.json to fold\n"
        "  --history=FILE               ledger path (default\n"
        "                               bench_history.jsonl)\n"
        "  --commit=SHA                 commit stamp for new entries\n"
        "  --quick                      mark entries as quick-mode runs\n"
        "                               (default: SESP_BENCH_QUICK=1)\n"
        "  --window=N                   prior samples per series (8)\n"
        "  --min-samples=N              priors required to gate (3)\n"
        "  --min-drop=F                 always-allowed drop fraction"
        " (0.25)\n"
        "  --mad-mult=F                 noise width multiplier (6.0)\n";
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

int run_record(const std::string& results_path,
               const std::string& history_path, const std::string& commit,
               bool quick) {
  std::string results_text;
  if (!read_file(results_path, &results_text)) {
    std::cerr << "cannot open " << results_path << "\n";
    return 2;
  }
  const std::int64_t now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::vector<obs::PerfEntry> entries;
  std::string error;
  if (!obs::entries_from_results(results_text, commit, now_ms, quick,
                                 &entries, &error)) {
    std::cerr << "cannot fold " << results_path << ": " << error << "\n";
    return 2;
  }
  if (entries.empty()) {
    std::cerr << results_path << " embeds no bench records\n";
    return 2;
  }
  std::ofstream out(history_path, std::ios::app);
  if (!out) {
    std::cerr << "cannot append to " << history_path << "\n";
    return 2;
  }
  for (const obs::PerfEntry& e : entries)
    out << obs::render_perf_entry(e) << "\n";
  std::cout << "recorded " << entries.size() << " bench entr"
            << (entries.size() == 1 ? "y" : "ies") << " into "
            << history_path << "\n";
  return 0;
}

int run_check(const std::string& history_path,
              const obs::PerfCheckOptions& opt) {
  std::string text;
  if (!read_file(history_path, &text)) {
    std::cout << "no history at " << history_path
              << "; nothing to gate — pass\n";
    return 0;
  }
  std::int64_t skipped = 0;
  const std::vector<obs::PerfEntry> entries =
      obs::parse_perf_ledger(text, &skipped);
  if (skipped > 0)
    std::cerr << "warning: " << skipped
              << " malformed ledger line(s) skipped\n";
  if (entries.empty()) {
    std::cout << "history " << history_path
              << " holds no entries; nothing to gate — pass\n";
    return 0;
  }
  const std::vector<obs::PerfCheck> checks =
      obs::check_history(entries, opt);
  bool regression = false;
  for (const obs::PerfCheck& c : checks) {
    std::cout << (c.regression ? "[FAIL] " : "[ OK ] ") << c.note << "\n";
    regression = regression || c.regression;
  }
  if (regression) {
    std::cout << "[FAIL] perf regression detected\n";
    return 1;
  }
  std::cout << "[OK] no perf regression across " << checks.size()
            << " series\n";
  return 0;
}

// Sim-core throughput floor: the newest full-mode "faults" entry must hold
// at least 5x the seeded (first) full-mode entry — the calendar-queue
// rewrite's recorded gain must never silently erode. Skipped with a note
// when the ledger is missing or still holds fewer than two full-mode
// entries (a fresh repo has nothing to hold the floor against).
int check_sim_core_floor(const std::string& history_path) {
  std::string text;
  if (!read_file(history_path, &text)) {
    std::cout << "[SKIP] sim-core floor: no history at " << history_path
              << "\n";
    return 0;
  }
  std::int64_t skipped = 0;
  std::vector<double> full_faults;
  for (const obs::PerfEntry& e : obs::parse_perf_ledger(text, &skipped))
    if (e.bench == "faults" && !e.quick && e.ok)
      full_faults.push_back(e.steps_per_sec);
  if (full_faults.size() < 2) {
    std::cout << "[SKIP] sim-core floor: " << full_faults.size()
              << " full-mode faults entr"
              << (full_faults.size() == 1 ? "y" : "ies") << " in "
              << history_path << "\n";
    return 0;
  }
  const double seeded = full_faults.front();
  const double newest = full_faults.back();
  if (seeded > 0.0 && newest < 5.0 * seeded) {
    std::cout << "[FAIL] sim-core floor: newest faults entry " << newest
              << " steps/s < 5x seeded baseline " << seeded << "\n";
    return 1;
  }
  std::cout << "[ OK ] sim-core floor: " << newest << " steps/s >= 5x seeded "
            << seeded << "\n";
  return 0;
}

// The gate gating itself: a steady series must pass, a 2x slowdown must be
// flagged, and a too-short series must pass with a note.
int run_self_test(const std::string& history_path) {
  obs::PerfCheckOptions opt;
  const auto entry = [](const std::string& bench, double rate) {
    obs::PerfEntry e;
    e.bench = bench;
    e.commit = "selftest";
    e.quick = false;
    e.ok = true;
    e.steps_per_sec = rate;
    return e;
  };

  std::vector<obs::PerfEntry> steady;
  for (const double r : {1.00e6, 1.02e6, 0.99e6, 1.01e6, 1.00e6})
    steady.push_back(entry("steady", r));
  const std::vector<obs::PerfCheck> ok_checks =
      obs::check_history(steady, opt);
  if (ok_checks.size() != 1 || ok_checks[0].regression) {
    std::cout << "[FAIL] self-test: steady series flagged\n";
    return 1;
  }

  std::vector<obs::PerfEntry> slowed = steady;
  slowed.push_back(entry("steady", 0.50e6));  // injected 2x slowdown
  const std::vector<obs::PerfCheck> slow_checks =
      obs::check_history(slowed, opt);
  if (slow_checks.size() != 1 || !slow_checks[0].regression) {
    std::cout << "[FAIL] self-test: 2x slowdown not flagged\n";
    return 1;
  }

  std::vector<obs::PerfEntry> young;
  young.push_back(entry("young", 1.0e6));
  young.push_back(entry("young", 0.4e6));  // slow, but only 1 prior
  const std::vector<obs::PerfCheck> young_checks =
      obs::check_history(young, opt);
  if (young_checks.size() != 1 || young_checks[0].regression) {
    std::cout << "[FAIL] self-test: short series must pass with a note\n";
    return 1;
  }

  // Round-trip: a rendered entry parses back to the same trajectory data.
  obs::PerfEntry sample = entry("roundtrip", 123456.5);
  sample.profile.push_back(obs::PerfPhase{"sim.step", 42, 1000});
  obs::PerfEntry parsed;
  std::string error;
  if (!obs::parse_perf_entry(obs::render_perf_entry(sample), &parsed,
                             &error) ||
      parsed.bench != sample.bench ||
      parsed.steps_per_sec != sample.steps_per_sec ||
      parsed.profile.size() != 1 || parsed.profile[0].count != 42) {
    std::cout << "[FAIL] self-test: ledger round-trip broke (" << error
              << ")\n";
    return 1;
  }

  if (const int rc = check_sim_core_floor(history_path); rc != 0) return rc;

  std::cout << "[OK] sesp_perf self-test passed\n";
  return 0;
}

}  // namespace
}  // namespace sesp

int main(int argc, char** argv) {
  if (argc < 2) {
    sesp::usage(std::cerr);
    return 2;
  }
  const std::string mode = argv[1];
  std::string results;
  std::string history = "bench_history.jsonl";
  std::string commit = "unknown";
  const char* quick_env = std::getenv("SESP_BENCH_QUICK");
  bool quick = quick_env && std::string(quick_env) == "1";
  sesp::obs::PerfCheckOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--results") results = value;
    else if (key == "--history") history = value;
    else if (key == "--commit") commit = value;
    else if (key == "--quick") quick = true;
    else if (key == "--window") opt.window = sesp::flag_value<int>(key, value);
    else if (key == "--min-samples")
      opt.min_samples = sesp::flag_value<int>(key, value);
    else if (key == "--min-drop")
      opt.min_drop = sesp::flag_value<double>(key, value);
    else if (key == "--mad-mult")
      opt.mad_mult = sesp::flag_value<double>(key, value);
    else if (key == "--help" || key == "-h") {
      sesp::usage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown option: " << key << "\n";
      sesp::usage(std::cerr);
      return 2;
    }
  }
  if (mode == "record") {
    if (results.empty()) {
      std::cerr << "record needs --results=FILE\n";
      return 2;
    }
    return sesp::run_record(results, history, commit, quick);
  }
  if (mode == "check") return sesp::run_check(history, opt);
  if (mode == "self-test") return sesp::run_self_test(history);
  std::cerr << "unknown mode: " << mode << "\n";
  sesp::usage(std::cerr);
  return 2;
}
