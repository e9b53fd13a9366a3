#pragma once

// Report rows for the Table 1 reproduction benches: predicted lower bound,
// measured worst case, predicted upper bound, and the sanity flags
// (L <= measured <= U, everything admissible, everything solved).

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench_record.hpp"
#include "sim/experiment.hpp"
#include "util/ratio.hpp"
#include "util/table.hpp"

namespace sesp {

struct BoundRow {
  std::string cell;        // e.g. "periodic/MP s=8 n=8"
  std::string measure;     // "time" or "rounds"
  Ratio lower;             // predicted L
  Ratio measured;          // measured worst case (time or rounds)
  Ratio upper;             // predicted U
  bool solved = false;     // all runs produced >= s sessions & terminated
  bool admissible = false; // all runs machine-checked admissible

  // The hard requirement: the algorithm never exceeds its predicted upper
  // bound. Whether the measured worst case also reaches the lower bound is
  // reported informationally (the finite adversary family need not contain
  // the exact L-achieving schedule; the executable lower-bound
  // constructions live in bench_lower_bounds).
  bool upper_ok() const { return measured <= upper; }
  bool lower_reached() const { return lower <= measured; }
};

class BoundReport {
 public:
  explicit BoundReport(std::string title);

  void add(BoundRow row);

  // Convenience: build a time-measured row from a WorstCase aggregate.
  void add_time_row(const std::string& cell, const Ratio& lower,
                    const WorstCase& wc, const Ratio& upper);
  // Rounds-measured row (asynchronous models).
  void add_rounds_row(const std::string& cell, std::int64_t lower,
                      const WorstCase& wc, std::int64_t upper);

  // True iff every row is solved, admissible and within its bounds.
  bool all_ok() const;

  void print(std::ostream& os) const;

  const std::vector<BoundRow>& rows() const { return rows_; }

  // Mirrors every row into the bench record (same cells and flags the
  // rendered table shows — the JSON and the table never disagree).
  void append_rows(obs::BenchRecorder& recorder) const;

  // {"title":...,"all_ok":...,"rows":[...]} with the same per-row fields as
  // the bench record schema.
  void write_json(obs::JsonWriter& w) const;

 private:
  std::string title_;
  std::vector<BoundRow> rows_;
};

}  // namespace sesp
