#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "model/trace_io.hpp"
#include "obs/json.hpp"
#include "util/digest.hpp"

namespace sesp::serve {

namespace {

// Nesting depth of a parsed value (scalar = 1). The parser's own hard cap
// (256) bounds the recursion here; the protocol cap is much lower.
int depth_of(const obs::JsonValue& v) {
  int deepest = 0;
  if (v.is_array()) {
    for (const obs::JsonValue& e : v.array)
      deepest = std::max(deepest, depth_of(e));
  } else if (v.is_object()) {
    for (const auto& [key, e] : v.object)
      deepest = std::max(deepest, depth_of(e));
  } else {
    return 1;
  }
  return 1 + deepest;
}

bool fail(std::string* error, const std::string& detail) {
  if (error) *error = detail;
  return false;
}

// Integer field: JSON number with an exactly-representable integral value.
bool read_int(const obs::JsonValue& doc, const char* name, std::int64_t lo,
              std::int64_t hi, std::int64_t* out, std::string* error) {
  const obs::JsonValue* v = doc.find(name);
  if (!v) return true;  // keep default
  if (!v->is_number() || v->number != std::floor(v->number) ||
      std::abs(v->number) > 9e15)
    return fail(error, std::string("field \"") + name +
                           "\" must be an integer");
  const std::int64_t n = v->as_int64();
  if (n < lo || n > hi)
    return fail(error, std::string("field \"") + name + "\" out of range [" +
                           std::to_string(lo) + "," + std::to_string(hi) +
                           "]");
  *out = n;
  return true;
}

// Rational field: "7/2" / "3" strings (exact) or integral JSON numbers.
bool read_ratio(const obs::JsonValue& doc, const char* name, Ratio* out,
                std::string* error) {
  const obs::JsonValue* v = doc.find(name);
  if (!v) return true;
  if (v->is_string()) {
    const auto r = ratio_from_text(v->string);
    if (!r)
      return fail(error, std::string("field \"") + name +
                             "\" is not a rational (want \"p/q\")");
    *out = *r;
    return true;
  }
  if (v->is_number() && v->number == std::floor(v->number) &&
      std::abs(v->number) <= 9e15) {
    *out = Ratio(v->as_int64());
    return true;
  }
  return fail(error, std::string("field \"") + name +
                         "\" must be a rational string or an integer");
}

bool read_string(const obs::JsonValue& doc, const char* name,
                 std::string* out, std::string* error) {
  const obs::JsonValue* v = doc.find(name);
  if (!v) return true;
  if (!v->is_string())
    return fail(error, std::string("field \"") + name + "\" must be a string");
  *out = v->string;
  return true;
}

bool one_of(const std::string& value, std::initializer_list<const char*> set) {
  for (const char* s : set)
    if (value == s) return true;
  return false;
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kBound: return "bound";
    case Op::kRun: return "run";
    case Op::kReplay: return "replay";
    case Op::kSweep: return "sweep";
    case Op::kPoll: return "poll";
    case Op::kHealth: return "health";
    case Op::kStats: return "stats";
  }
  return "unknown";
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "Ok";
    case Status::kBadRequest: return "BadRequest";
    case Status::kOverloaded: return "Overloaded";
    case Status::kTimeout: return "Timeout";
  }
  return "unknown";
}

bool parse_request(std::string_view line, const ProtocolLimits& limits,
                   Request* out, std::string* error) {
  *out = Request{};
  if (line.size() > limits.max_line_bytes)
    return fail(error, "request line exceeds " +
                           std::to_string(limits.max_line_bytes) + " bytes");

  std::string parse_error;
  const auto doc = obs::parse_json(line, &parse_error);
  if (!doc) return fail(error, "malformed JSON: " + parse_error);
  if (!doc->is_object())
    return fail(error, "request must be a JSON object");
  if (depth_of(*doc) > limits.max_depth)
    return fail(error, "request exceeds nesting depth " +
                           std::to_string(limits.max_depth));

  // The id is recovered first so even otherwise-bad requests get a reply
  // carrying their id.
  if (!read_int(*doc, "id", 0, 9'000'000'000'000'000, &out->id, error))
    return false;

  std::string op;
  if (!read_string(*doc, "op", &op, error)) return false;
  if (op.empty()) return fail(error, "missing field \"op\"");
  if (op == "bound") out->op = Op::kBound;
  else if (op == "run") out->op = Op::kRun;
  else if (op == "replay") out->op = Op::kReplay;
  else if (op == "sweep") out->op = Op::kSweep;
  else if (op == "poll") out->op = Op::kPoll;
  else if (op == "health") out->op = Op::kHealth;
  else if (op == "stats") out->op = Op::kStats;
  else return fail(error, "unknown op \"" + op + "\"");

  RunSpec& run = out->run;
  std::int64_t n = run.spec.n, b = run.spec.b;
  if (!read_int(*doc, "s", 1, limits.max_s, &run.spec.s, error) ||
      !read_int(*doc, "n", 1, limits.max_n, &n, error) ||
      !read_int(*doc, "b", 1, limits.max_n, &b, error))
    return false;
  run.spec.n = static_cast<std::int32_t>(n);
  run.spec.b = static_cast<std::int32_t>(b);

  if (!read_ratio(*doc, "c1", &run.c1, error) ||
      !read_ratio(*doc, "c2", &run.c2, error) ||
      !read_ratio(*doc, "d1", &run.d1, error) ||
      !read_ratio(*doc, "d2", &run.d2, error))
    return false;
  if (run.c1.is_negative() || run.d1.is_negative() || !run.c2.is_positive() ||
      !run.d2.is_positive())
    return fail(error, "timing constants must satisfy c1,d1 >= 0 and c2,d2 > 0");
  if (run.c2 < run.c1 || run.d2 < run.d1)
    return fail(error, "timing constants must satisfy c1 <= c2 and d1 <= d2");

  std::int64_t seed = static_cast<std::int64_t>(run.seed);
  if (!read_int(*doc, "seed", 0, 9'000'000'000'000'000, &seed, error))
    return false;
  run.seed = static_cast<std::uint64_t>(seed);
  if (!read_int(*doc, "deadline_ms", 0, limits.max_deadline_ms,
                &out->deadline_ms, error))
    return false;

  if (!read_string(*doc, "substrate", &run.substrate, error) ||
      !read_string(*doc, "side", &out->bound_side, error) ||
      !read_string(*doc, "model", &run.model, error) ||
      !read_string(*doc, "adversary", &run.adversary, error) ||
      !read_string(*doc, "ticket", &out->ticket, error) ||
      !read_string(*doc, "trace", &out->trace_text, error))
    return false;

  if (!one_of(run.model,
              {"sync", "periodic", "semisync", "sporadic", "async"}))
    return fail(error, "unknown model \"" + run.model + "\"");

  switch (out->op) {
    case Op::kBound:
      if (!one_of(out->bound_side, {"sm", "mp"}))
        return fail(error, "bound needs side=sm|mp");
      break;
    case Op::kRun:
    case Op::kSweep:
      if (!one_of(run.substrate, {"mpm", "smm"}))
        return fail(error, "substrate must be mpm|smm");
      if (out->op == Op::kRun &&
          !one_of(run.adversary, {"worst", "lockstep", "random"}))
        return fail(error, "adversary must be worst|lockstep|random");
      break;
    case Op::kReplay: {
      if (!one_of(run.substrate, {"mpm", "smm"}))
        return fail(error, "substrate must be mpm|smm");
      if (out->trace_text.empty())
        return fail(error, "replay needs a \"trace\" field");
      break;
    }
    case Op::kPoll: {
      std::uint64_t parsed = 0;
      if (!util::parse_fnv1a_hex(out->ticket, &parsed))
        return fail(error, "poll needs a 16-hex-digit \"ticket\"");
      break;
    }
    case Op::kHealth:
    case Op::kStats:
      break;
  }
  return true;
}

std::uint64_t request_digest(const Request& r) {
  // Canonical '|'-joined text of every result-affecting field of the op —
  // the same construction the tools' config_digest() functions use, so a
  // ticket can be recomputed from a journaled request by any layer.
  const RunSpec& run = r.run;
  std::ostringstream os;
  os << op_name(r.op) << '|';
  switch (r.op) {
    case Op::kBound:
      os << r.bound_side << '|' << run.model << '|' << run.spec.s << '|'
         << run.spec.n << '|' << run.spec.b << '|' << ratio_to_text(run.c1)
         << '|' << ratio_to_text(run.c2) << '|' << ratio_to_text(run.d1)
         << '|' << ratio_to_text(run.d2);
      break;
    case Op::kRun:
      os << run.substrate << '|' << run.model << '|' << run.adversary << '|'
         << run.spec.s << '|' << run.spec.n << '|' << run.spec.b << '|'
         << ratio_to_text(run.c1) << '|' << ratio_to_text(run.c2) << '|'
         << ratio_to_text(run.d1) << '|' << ratio_to_text(run.d2) << '|'
         << run.seed;
      break;
    case Op::kSweep:
      os << run.substrate << '|' << run.model << '|' << run.spec.s << '|'
         << run.spec.n << '|' << run.spec.b << '|' << ratio_to_text(run.c1)
         << '|' << ratio_to_text(run.c2) << '|' << ratio_to_text(run.d1)
         << '|' << ratio_to_text(run.d2) << '|' << run.seed;
      break;
    case Op::kReplay:
      os << run.substrate << '|' << run.model << '|' << run.spec.s << '|'
         << run.spec.n << '|' << run.spec.b << '|' << ratio_to_text(run.c1)
         << '|' << ratio_to_text(run.c2) << '|' << ratio_to_text(run.d1)
         << '|' << ratio_to_text(run.d2) << '|'
         << util::fnv1a_hex(util::fnv1a(r.trace_text));
      break;
    case Op::kPoll:
      os << r.ticket;
      break;
    case Op::kHealth:
    case Op::kStats:
      break;
  }
  return util::fnv1a(os.str());
}

std::string render_request(const Request& r) {
  const RunSpec& run = r.run;
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("id", r.id);
  w.field("op", op_name(r.op));
  w.field("substrate", run.substrate);
  w.field("side", r.bound_side);
  w.field("model", run.model);
  w.field("adversary", run.adversary);
  w.field("s", run.spec.s);
  w.field("n", static_cast<std::int64_t>(run.spec.n));
  w.field("b", static_cast<std::int64_t>(run.spec.b));
  w.field("c1", ratio_to_text(run.c1));
  w.field("c2", ratio_to_text(run.c2));
  w.field("d1", ratio_to_text(run.d1));
  w.field("d2", ratio_to_text(run.d2));
  w.field("seed", static_cast<std::int64_t>(run.seed));
  if (r.deadline_ms > 0) w.field("deadline_ms", r.deadline_ms);
  if (!r.ticket.empty()) w.field("ticket", r.ticket);
  if (!r.trace_text.empty()) w.field("trace", r.trace_text);
  w.end_object();
  return os.str();
}

std::string ok_reply(std::int64_t id, const std::string& result_json) {
  // The result fragment is spliced verbatim by design: it is always
  // JsonWriter-rendered by this process (result_json() in the server), and
  // reusing the cached bytes unchanged is what makes repeated bound replies
  // byte-identical across cache hits, overload and restarts.
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"status\":\"" << status_name(Status::kOk)
     << "\",\"result\":" << result_json << '}';
  return os.str();
}

std::string error_reply(std::int64_t id, Status status,
                        const std::string& detail,
                        std::int64_t retry_after_ms) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("id", id);
  w.field("status", status_name(status));
  w.field("error", detail);
  if (retry_after_ms > 0) w.field("retry_after_ms", retry_after_ms);
  w.end_object();
  return os.str();
}

}  // namespace sesp::serve
