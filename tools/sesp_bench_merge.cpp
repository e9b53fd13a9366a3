// sesp_bench_merge — aggregate the BENCH_*.json records the bench
// binaries write into one bench_results.json and derive the reproduction
// verdict from the structured ok / solved / admissible / upper_ok fields
// (instead of grepping bench stdout for [OK] / [FAIL]).
//
//   sesp_bench_merge --out=bench_results.json BENCH_table1_sync.json ...
//
// Exit status: 0 when every record parses, validates against sesp-bench/3
// and reports ok=true; 1 when any record fails or is malformed (mid-text
// corruption or a wrong schema — a real bug, never produced by a clean
// kill); 2 when no record files were given or one cannot be read; 3 when
// the ONLY blemish is truncated records (torn by a killed writer — skipped
// with a warning, so a bench interrupted mid-write degrades the merge
// instead of failing it). 1 beats 3: a malformed record still fails the
// merge even when truncated records were also skipped.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_record.hpp"

int main(int argc, char** argv) {
  std::string out_path = "bench_results.json";
  std::vector<std::pair<std::string, std::string>> named_texts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: sesp_bench_merge [--out=FILE] BENCH_*.json...\n"
                   "exit status:\n"
                   "  0  every record parsed, validated and reported ok\n"
                   "  1  a record failed validation or was malformed\n"
                   "     (corrupt mid-text or wrong schema: a real bug)\n"
                   "  2  no records given, or a file cannot be read\n"
                   "  3  only blemish was truncated records (torn by a\n"
                   "     killed writer: skipped, rerun those benches)\n";
      return 0;
    }
    std::ifstream in(arg);
    if (!in) {
      std::cerr << "cannot open " << arg << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    named_texts.emplace_back(arg, buf.str());
  }
  if (named_texts.empty()) {
    std::cerr << "no bench records given\n"
              << "usage: sesp_bench_merge [--out=FILE] BENCH_*.json...\n"
              << "(--help lists the exit-status protocol)\n";
    return 2;
  }

  const sesp::obs::BenchAggregate agg =
      sesp::obs::aggregate_bench_records(named_texts);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 2;
  }
  out << agg.results_json;

  for (const std::string& name : agg.skipped)
    std::cerr << "warning: skipped truncated record " << name << "\n";

  std::cout << "records:   " << agg.records << "\n"
            << "failed:    " << agg.failed << "\n"
            << "malformed: " << agg.malformed << "\n"
            << "truncated: " << agg.truncated << "\n";
  for (const std::string& name : agg.failures)
    std::cout << "  FAIL " << name << "\n";
  for (const std::string& name : agg.skipped)
    std::cout << "  SKIP " << name << "\n";
  std::cout << "merged into " << out_path << "\n";
  if (!agg.all_ok()) {
    std::cout << "[FAIL] some bench record failed validation\n";
    return 1;
  }
  if (agg.truncated > 0) {
    std::cout << "[WARN] all surviving records passed; "
              << agg.truncated << " truncated record(s) skipped\n";
    return 3;
  }
  std::cout << "[OK] all bench records passed\n";
  return 0;
}
