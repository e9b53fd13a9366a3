#include "obs/bench_record.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "obs/json.hpp"

namespace sesp::obs {

BenchRecorder::BenchRecorder(std::string name)
    : name_(std::move(name)), observer_(&metrics_, nullptr) {
  previous_default_ = set_default_observer(&observer_);
}

BenchRecorder::~BenchRecorder() {
  if (!finished_) finish(false);
  set_default_observer(previous_default_);
}

void BenchRecorder::add_row(PerfRow row) { rows_.push_back(std::move(row)); }

std::string BenchRecorder::output_path() const {
  const char* dir = std::getenv("SESP_BENCH_JSON_DIR");
  std::string path = dir && *dir ? std::string(dir) + "/" : std::string();
  return path + "BENCH_" + name_ + ".json";
}

std::string BenchRecorder::render(bool ok) const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "sesp-bench/3");
  w.field("bench", name_);
  w.field("ok", ok);
  w.key("rows");
  w.begin_array();
  for (const PerfRow& row : rows_) {
    w.begin_object();
    w.field("cell", row.cell);
    w.field("measure", row.measure);
    w.field("lower", row.lower);
    w.field("measured", row.measured);
    w.field("upper", row.upper);
    w.field("lower_approx", row.lower.to_double());
    w.field("measured_approx", row.measured.to_double());
    w.field("upper_approx", row.upper.to_double());
    w.field("solved", row.solved);
    w.field("admissible", row.admissible);
    w.field("upper_ok", row.upper_ok);
    w.field("lower_reached", row.lower_reached);
    w.end_object();
  }
  w.end_array();
  // No bench records scalar notes; the member stays for the schema.
  w.key("notes");
  w.begin_object();
  w.end_object();
  w.key("metrics");
  metrics_.write_json(w);
  w.end_object();
  return os.str();
}

int BenchRecorder::finish(bool ok) {
  if (finished_) return first_ok_ ? 0 : 1;
  finished_ = true;
  first_ok_ = ok;
  const std::string path = output_path();
  std::ofstream out(path);
  if (out) {
    out << render(ok) << '\n';
    std::cout << "perf record written to " << path << "\n";
  } else {
    std::cerr << "warning: cannot write " << path << "\n";
  }
  return ok ? 0 : 1;
}

// --- Aggregation ------------------------------------------------------------

BenchRecordCheck classify_bench_record(const std::string& text,
                                       std::string* error) {
  std::size_t trimmed = text.size();
  while (trimmed > 0 &&
         (text[trimmed - 1] == '\n' || text[trimmed - 1] == '\r' ||
          text[trimmed - 1] == ' ' || text[trimmed - 1] == '\t'))
    --trimmed;
  if (trimmed == 0) {
    if (error) *error = "empty record (truncated at birth)";
    return BenchRecordCheck::kTruncated;
  }
  std::string parse_error;
  std::size_t offset = 0;
  const auto doc =
      parse_json(std::string_view(text).substr(0, trimmed), &parse_error,
                 &offset);
  if (!doc) {
    if (error) *error = "parse error: " + parse_error;
    return offset >= trimmed ? BenchRecordCheck::kTruncated
                             : BenchRecordCheck::kMalformed;
  }
  return validate_bench_record(text, error) ? BenchRecordCheck::kValid
                                            : BenchRecordCheck::kMalformed;
}

bool validate_bench_record(const std::string& text, std::string* error) {
  std::string parse_error;
  const auto doc = parse_json(text, &parse_error);
  if (!doc) {
    if (error) *error = "parse error: " + parse_error;
    return false;
  }
  if (!doc->is_object()) {
    if (error) *error = "record is not a JSON object";
    return false;
  }
  const auto require = [&](const char* name, JsonValue::Kind kind) {
    const JsonValue* v = doc->find(name);
    if (!v || v->kind != kind) {
      if (error)
        *error = std::string("missing or mistyped field \"") + name + "\"";
      return false;
    }
    return true;
  };
  if (!require("schema", JsonValue::Kind::kString)) return false;
  const std::string& schema = doc->find("schema")->string;
  if (schema != "sesp-bench/3") {
    if (error) *error = "unknown schema \"" + schema + "\" (want sesp-bench/3)";
    return false;
  }
  if (!require("bench", JsonValue::Kind::kString)) return false;
  if (!require("ok", JsonValue::Kind::kBool)) return false;
  if (!require("rows", JsonValue::Kind::kArray)) return false;
  if (!require("notes", JsonValue::Kind::kObject)) return false;
  if (!require("metrics", JsonValue::Kind::kObject)) return false;
  for (const JsonValue& row : doc->find("rows")->array) {
    for (const char* field : {"cell", "measure", "lower", "measured", "upper"})
      if (!row.find(field) || !row.find(field)->is_string()) {
        if (error)
          *error = std::string("row missing string field \"") + field + "\"";
        return false;
      }
    for (const char* field :
         {"solved", "admissible", "upper_ok", "lower_reached"})
      if (!row.find(field) || !row.find(field)->is_bool()) {
        if (error)
          *error = std::string("row missing bool field \"") + field + "\"";
        return false;
      }
  }
  return true;
}

BenchAggregate aggregate_bench_records(
    const std::vector<std::pair<std::string, std::string>>& named_texts) {
  BenchAggregate agg;

  // First pass: classify (and keep the parsed documents), so the summary
  // fields can precede the bulk payload in one writer pass.
  std::vector<JsonValue> valid_docs;
  for (const auto& [name, text] : named_texts) {
    std::string error;
    switch (classify_bench_record(text, &error)) {
      case BenchRecordCheck::kValid: {
        auto doc = parse_json(text);
        ++agg.records;
        if (!doc->find("ok")->boolean) {
          ++agg.failed;
          agg.failures.push_back(doc->find("bench")->string);
        }
        valid_docs.push_back(std::move(*doc));
        break;
      }
      case BenchRecordCheck::kTruncated:
        ++agg.truncated;
        agg.skipped.push_back(name + " (" + error + ")");
        break;
      case BenchRecordCheck::kMalformed:
        ++agg.malformed;
        agg.failures.push_back(name + " (" + error + ")");
        break;
    }
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "sesp-bench-results/1");
  w.field("records", agg.records);
  w.field("failed", agg.failed);
  w.field("malformed", agg.malformed);
  w.field("truncated", agg.truncated);
  w.field("all_ok", agg.all_ok());
  w.key("failures");
  w.begin_array();
  for (const std::string& f : agg.failures) w.value(f);
  w.end_array();
  w.key("skipped");
  w.begin_array();
  for (const std::string& s : agg.skipped) w.value(s);
  w.end_array();
  // Embed the validated records through the writer (parse → write is a
  // fixpoint for JsonWriter-produced records, so the bytes match what the
  // bench wrote) — no string surgery on the finished document.
  w.key("benches");
  w.begin_array();
  for (const JsonValue& doc : valid_docs) write_json_value(w, doc);
  w.end_array();
  w.end_object();
  agg.results_json = os.str();
  return agg;
}

}  // namespace sesp::obs
