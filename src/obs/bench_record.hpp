#pragma once

// Machine-readable reproduction records for the bench binaries. Every
// bench_* constructs a BenchRecorder at the top of main(); it installs a
// process-wide default observer (metrics only — no trace, so thousands of
// runs cost a handful of counters) and, at finish(), writes
// `BENCH_<name>.json` next to the ASCII table output:
//
//   {
//     "schema": "sesp-bench/3",
//     "bench": "table1_sync",
//     "ok": true,                  // the binary's exit verdict
//     "rows": [ {"cell": ..., "measure": "time"|"rounds",
//                "lower": "3/2", "measured": "3/2", "upper": "3/2",
//                "lower_approx": 1.5, ..., "solved": true,
//                "admissible": true, "upper_ok": true,
//                "lower_reached": true}, ... ],
//     "notes": {},                 // always empty; kept for the schema
//     "metrics": { ... }           // full MetricsRegistry dump
//   }
//
// The output directory is the working directory unless SESP_BENCH_JSON_DIR
// is set. scripts/reproduce.sh and CI aggregate the records with
// sesp_bench_merge and derive the final verdict from the structured ok /
// solved / admissible / upper_ok fields instead of grepping stdout.
//
// The records carry no timings, so they repeat exactly run to run: speed is
// measured by perfbench/, whose records are fingerprinted with host, jobs
// and commit. The validator accepts only sesp-bench/3.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/ratio.hpp"

namespace sesp::obs {

// One bound-comparison row (mirror of analysis/BoundRow, kept here so the
// obs layer does not depend on the analysis layer).
struct PerfRow {
  std::string cell;
  std::string measure;  // "time" or "rounds"
  Ratio lower;
  Ratio measured;
  Ratio upper;
  bool solved = false;
  bool admissible = false;
  bool upper_ok = false;
  bool lower_reached = false;
};

class BenchRecorder {
 public:
  // Installs this recorder's Observer as the process default (saving the
  // previous one).
  explicit BenchRecorder(std::string name);
  // Restores the previous default observer; writes the record if finish()
  // was never called (ok=false — an early exit is a failure).
  ~BenchRecorder();

  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  MetricsRegistry& metrics() noexcept { return metrics_; }
  Observer& observer() noexcept { return observer_; }

  void add_row(PerfRow row);

  // Writes BENCH_<name>.json and returns the process exit status (0 iff
  // ok). Idempotent: the first call wins — both for the record on disk and
  // for the status later calls return.
  int finish(bool ok);

  // The record text exactly as written (for tests).
  std::string render(bool ok) const;

 private:
  std::string output_path() const;

  std::string name_;
  MetricsRegistry metrics_;
  Observer observer_;
  Observer* previous_default_ = nullptr;
  std::vector<PerfRow> rows_;
  bool finished_ = false;
  bool first_ok_ = false;
};

// --- Aggregation (sesp_bench_merge, reproduce.sh, CI) -----------------------

struct BenchAggregate {
  std::int64_t records = 0;
  std::int64_t failed = 0;        // records with "ok": false
  std::int64_t malformed = 0;     // unparseable / wrong schema
  std::int64_t truncated = 0;     // torn by a killed writer; skipped
  std::vector<std::string> failures;  // names (or filenames) of the above
  std::vector<std::string> skipped;   // filenames of truncated records
  std::string results_json;       // the merged sesp-bench-results/1 document

  // Truncated records are skipped with a warning, not failed: a bench
  // killed mid-write (crash, Ctrl-C) must not fail the whole merge. The
  // tool reports them with its own distinct exit code.
  bool all_ok() const {
    return records > 0 && failed == 0 && malformed == 0;
  }
};

// Merges BENCH_*.json texts (name -> file contents) into one
// sesp-bench-results/1 document; every record is schema-validated and the
// verdict is derived from the structured fields.
BenchAggregate aggregate_bench_records(
    const std::vector<std::pair<std::string, std::string>>& named_texts);

// Schema check used by the aggregator and obs_test: returns true iff `text`
// parses as a valid sesp-bench/3 record; fills *error otherwise.
bool validate_bench_record(const std::string& text, std::string* error);

// Three-way classification behind the aggregator: a record whose JSON parse
// fails exactly at the end of its (whitespace-trimmed) text was torn by a
// killed writer — recoverable by rerunning the bench — while a mid-text
// parse failure or a schema violation is malformed.
enum class BenchRecordCheck { kValid, kTruncated, kMalformed };
BenchRecordCheck classify_bench_record(const std::string& text,
                                       std::string* error);

}  // namespace sesp::obs
