#pragma once

// Minimal JSON support for the observability layer: a streaming writer with
// correct escaping (used by the metrics/trace/bench-record serializers) and
// a small recursive-descent parser (used by the bench-record aggregator and
// the round-trip tests). Deliberately tiny — no external dependency, no
// DOM mutation API, numbers parsed as doubles (all our serialized numbers
// fit; exact rationals travel as "num/den" strings, never as numbers).

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ratio.hpp"

namespace sesp::obs {

// Escapes for inclusion inside a JSON string literal (no surrounding
// quotes): ", \, control characters.
std::string json_escape(std::string_view text);

// Streaming writer: begin_object/key/value calls emit valid JSON with
// commas handled automatically. Misuse (a value where a key is required)
// terminates — serializer bugs must not produce silently invalid records.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(std::int64_t number);
  void value(double number);  // non-finite serializes as null
  void value(bool boolean);
  // Exact rationals serialize as their text form ("7/2"); callers that also
  // want a float for plotting emit a sibling *_approx field.
  void value(const Ratio& ratio) { value(ratio.to_string()); }
  void null_value();

  // Convenience for the common `"key": value` pair.
  template <typename T>
  void field(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  void before_value();

  std::ostream& os_;
  // One entry per open container: whether a value was already emitted
  // (comma needed) — top-level mirrors it for single-value documents.
  struct Frame {
    bool array = false;
    bool has_value = false;
    bool has_key = false;
  };
  std::vector<Frame> stack_;
  bool root_written_ = false;
};

// Parsed JSON value. Object member order is preserved (records are written
// and compared in a canonical order).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  std::int64_t as_int64() const { return static_cast<std::int64_t>(number); }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view name) const;
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage
// is an error). Returns nullopt and fills *error on malformed input;
// *error_offset (optional) receives the byte offset of the failure, which
// lets callers distinguish a document truncated at the end (offset ==
// length of the meaningful prefix — e.g. a record torn by a killed writer)
// from corruption in the middle.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr,
                                    std::size_t* error_offset = nullptr);

// Re-serializes a parsed value through the streaming writer (member order
// preserved, doubles via %.17g, non-finite as null). parse → write →
// parse is a fixpoint — the round-trip property the fuzz tests pin, and
// how sesp_client re-emits a reply value without hand-gluing strings.
void write_json_value(JsonWriter& w, const JsonValue& value);

}  // namespace sesp::obs
