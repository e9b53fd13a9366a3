#include "model/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <string_view>

namespace sesp {

namespace {

// One rendered record: a head, then comma-separated fields, built in a
// stack buffer and appended to the output in one piece. The longest line
// the format has (a step with every integer at its widest) is under 200
// bytes.
class LineWriter {
 public:
  explicit LineWriter(std::string_view head = {})
      : at_(std::copy(head.begin(), head.end(), buf_)) {}

  template <std::integral Int>
  LineWriter& field(Int v) {
    *at_++ = ',';
    at_ = std::to_chars(at_, std::end(buf_), v).ptr;
    return *this;
  }
  // Ratio::to_string's form: "num", or "num/den" when den != 1.
  LineWriter& field(const Ratio& r) {
    field(r.num());
    if (r.den() != 1) {
      *at_++ = '/';
      at_ = std::to_chars(at_, std::end(buf_), r.den()).ptr;
    }
    return *this;
  }
  LineWriter& field(std::string_view s) {
    *at_++ = ',';
    at_ = std::copy(s.begin(), s.end(), at_);
    return *this;
  }
  // A message's deliver or receive step: "-" while pending.
  LineWriter& step_field(std::size_t i) {
    return i == MessageRecord::kPending ? field(std::string_view("-"))
                                        : field(i);
  }

  void append_to(std::string& out) const {
    out.append(buf_, static_cast<std::size_t>(at_ - buf_));
  }
  void end_line(std::string& out) {
    *at_++ = '\n';
    append_to(out);
  }

 private:
  char buf_[256];
  char* at_;
};

// Pops the next comma-separated field off the front of `rest`.
std::string_view next_field(std::string_view& rest) {
  const std::size_t comma = rest.find(',');
  const std::string_view field = rest.substr(0, comma);
  rest.remove_prefix(comma == std::string_view::npos ? rest.size()
                                                     : comma + 1);
  return field;
}

std::size_t field_count(std::string_view line) {
  return 1 + static_cast<std::size_t>(
                 std::count(line.begin(), line.end(), ','));
}

// Pops the next newline-terminated line off the front of `rest` (the last
// line may lack its newline). False once `rest` is empty.
bool next_line(std::string_view& rest, std::string_view* line) {
  if (rest.empty()) return false;
  const std::size_t nl = rest.find('\n');
  *line = rest.substr(0, nl);
  rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
  return true;
}

template <typename Int>
bool parse_int(std::string_view s, Int* value) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *value);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_ratio(std::string_view s, Ratio* value) {
  const std::size_t slash = s.find('/');
  std::int64_t num = 0;
  if (slash == std::string_view::npos) {
    if (!parse_int(s, &num)) return false;
    *value = Ratio(num);
    return true;
  }
  std::int64_t den = 0;
  if (!parse_int(s.substr(0, slash), &num) ||
      !parse_int(s.substr(slash + 1), &den) || den == 0)
    return false;
  *value = Ratio(num, den);
  return true;
}

// "-" for a pending step, else an unsigned step index.
bool parse_step_index(std::string_view s, std::size_t* value) {
  return s == "-" || parse_int(s, value);
}

bool set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
  return false;
}

// Rejects a record line; the message is built only here.
bool line_error(std::string* error, std::size_t line_no,
                std::string_view what) {
  return set_error(error, "line " + std::to_string(line_no) + ": " +
                              std::string(what));
}

// Reads the fields of a step line after its record name. Ids, ports and
// vars are read as int64 and narrowed to their types.
bool parse_step(std::string_view rest, StepRecord* st, std::string* error,
                std::size_t line_no) {
  const std::string_view kind = next_field(rest);
  if (kind == "c") {
    st->kind = StepKind::kCompute;
  } else if (kind == "d") {
    st->kind = StepKind::kDeliver;
  } else {
    return line_error(error, line_no, "bad step kind");
  }
  std::string_view f[8];
  for (std::string_view& field : f) field = next_field(rest);
  // The time is read whatever the other fields hold: a fraction that
  // cannot be normalized throws ArithmeticOverflow, never a parse error.
  const bool time_ok = parse_ratio(f[1], &st->time);
  std::int64_t process = 0, port = 0, var = 0, idle = 0;
  if (!time_ok || !parse_int(f[0], &process) || !parse_int(f[2], &port) ||
      !parse_int(f[3], &var) || !parse_int(f[4], &st->delivered) ||
      !parse_int(f[5], &idle) || !parse_int(f[6], &st->value_before_digest) ||
      !parse_int(f[7], &st->value_after_digest))
    return line_error(error, line_no, "malformed step fields");
  st->process = static_cast<ProcessId>(process);
  st->port = static_cast<PortIndex>(port);
  st->var = static_cast<VarId>(var);
  st->idle_after = idle != 0;
  return true;
}

// Reads the fields of a msg line after its record name. The numeric fields
// are judged before the deliver and receive steps, so a line bad in both
// reports its numeric fields.
bool parse_msg(std::string_view rest, MessageRecord* m, std::string* error,
               std::size_t line_no) {
  std::string_view f[8];
  for (std::string_view& field : f) field = next_field(rest);
  std::int64_t sender = 0, recipient = 0, done = 0;
  if (!parse_int(f[0], &sender) || !parse_int(f[1], &recipient) ||
      !parse_int(f[2], &m->send_step) || !parse_int(f[5], &m->session) ||
      !parse_int(f[6], &m->steps) || !parse_int(f[7], &done))
    return line_error(error, line_no, "malformed msg fields");
  if (!parse_step_index(f[3], &m->deliver_step))
    return line_error(error, line_no, "malformed deliver step");
  if (!parse_step_index(f[4], &m->receive_step))
    return line_error(error, line_no, "malformed receive step");
  m->sender = static_cast<ProcessId>(sender);
  m->recipient = static_cast<ProcessId>(recipient);
  m->done = done != 0;
  return true;
}

}  // namespace

std::string ratio_to_text(const Ratio& r) { return r.to_string(); }

std::optional<Ratio> ratio_from_text(const std::string& text) {
  Ratio value;
  if (!parse_ratio(text, &value)) return std::nullopt;
  return value;
}

std::string to_text(const TimedComputation& trace) {
  std::string out;
  // About 45 bytes per step line and 25 per msg line in practice.
  out.reserve(64 + 48 * trace.steps().size() + 32 * trace.messages().size());
  out += "sesp-trace v1\n";
  LineWriter(trace.substrate() == Substrate::kSharedMemory ? "meta,smm"
                                                           : "meta,mpm")
      .field(trace.num_processes())
      .field(trace.num_ports())
      .end_line(out);
  for (const StepRecord& st : trace.steps()) {
    LineWriter(st.kind == StepKind::kCompute ? "step,c" : "step,d")
        .field(st.process)
        .field(st.time)
        .field(st.port)
        .field(st.var)
        .field(st.delivered)
        .field(st.idle_after ? 1 : 0)
        .field(st.value_before_digest)
        .field(st.value_after_digest)
        .end_line(out);
  }
  for (const MessageRecord& m : trace.messages()) {
    LineWriter("msg")
        .field(m.sender)
        .field(m.recipient)
        .field(m.send_step)
        .step_field(m.deliver_step)
        .step_field(m.receive_step)
        .field(m.session)
        .field(m.steps)
        .field(m.done ? 1 : 0)
        .end_line(out);
  }
  return out;
}

std::optional<TimedComputation> trace_from_text(const std::string& text,
                                                std::string* error) {
  std::string_view rest = text;
  std::string_view line;
  if (!next_line(rest, &line) || line != "sesp-trace v1") {
    set_error(error, "missing 'sesp-trace v1' header");
    return std::nullopt;
  }
  if (!next_line(rest, &line)) {
    set_error(error, "missing meta line");
    return std::nullopt;
  }
  const std::size_t meta_fields = field_count(line);
  const std::string_view meta_name = next_field(line);
  const std::string_view substrate = next_field(line);
  if (meta_fields != 4 || meta_name != "meta" ||
      (substrate != "smm" && substrate != "mpm")) {
    set_error(error, "malformed meta line");
    return std::nullopt;
  }
  std::int64_t procs = 0;
  std::int64_t ports = 0;
  if (!parse_int(next_field(line), &procs) ||
      !parse_int(next_field(line), &ports)) {
    set_error(error, "malformed meta counts");
    return std::nullopt;
  }

  TimedComputation trace(substrate == "smm" ? Substrate::kSharedMemory
                                            : Substrate::kMessagePassing,
                         static_cast<std::int32_t>(procs),
                         static_cast<std::int32_t>(ports));

  std::size_t line_no = 2;
  while (next_line(rest, &line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::size_t fields = field_count(line);
    const std::string_view record = next_field(line);
    if (record == "step") {
      if (fields != 10) {
        line_error(error, line_no, "step needs 10 fields");
        return std::nullopt;
      }
      StepRecord st;
      if (!parse_step(line, &st, error, line_no)) return std::nullopt;
      trace.append(st);
    } else if (record == "msg") {
      if (fields != 9) {
        line_error(error, line_no, "msg needs 9 fields");
        return std::nullopt;
      }
      MessageRecord m;
      if (!parse_msg(line, &m, error, line_no)) return std::nullopt;
      trace.append_message(m);
    } else {
      line_error(error, line_no,
                 "unknown record '" + std::string(record) + "'");
      return std::nullopt;
    }
  }
  return trace;
}

std::string to_text(const TimingConstraints& constraints) {
  std::string out;
  LineWriter("constraints")
      .field(to_string(constraints.model))
      .field(constraints.c1)
      .field(constraints.c2)
      .field(constraints.d1)
      .field(constraints.d2)
      .append_to(out);
  // One writer per period: a periodic instance has one per process.
  for (const Duration& p : constraints.periods)
    LineWriter().field(p).append_to(out);
  return out;
}

std::optional<TimingConstraints> constraints_from_text(const std::string& text,
                                                       std::string* error) {
  std::string_view rest = text;
  const std::size_t fields = field_count(rest);
  if (fields < 6 || next_field(rest) != "constraints") {
    set_error(error, "malformed constraints line");
    return std::nullopt;
  }
  TimingConstraints tc;
  const std::string_view model = next_field(rest);
  if (model == "synchronous")
    tc.model = TimingModel::kSynchronous;
  else if (model == "periodic")
    tc.model = TimingModel::kPeriodic;
  else if (model == "semi-synchronous")
    tc.model = TimingModel::kSemiSynchronous;
  else if (model == "sporadic")
    tc.model = TimingModel::kSporadic;
  else if (model == "asynchronous")
    tc.model = TimingModel::kAsynchronous;
  else {
    set_error(error, "unknown timing model '" + std::string(model) + "'");
    return std::nullopt;
  }
  // All four bounds are read before any is judged, so a fraction that
  // cannot be normalized throws wherever it sits.
  const bool c1 = parse_ratio(next_field(rest), &tc.c1);
  const bool c2 = parse_ratio(next_field(rest), &tc.c2);
  const bool d1 = parse_ratio(next_field(rest), &tc.d1);
  const bool d2 = parse_ratio(next_field(rest), &tc.d2);
  if (!c1 || !c2 || !d1 || !d2) {
    set_error(error, "malformed constraint bounds");
    return std::nullopt;
  }
  for (std::size_t i = 6; i < fields; ++i) {
    Ratio p;
    if (!parse_ratio(next_field(rest), &p)) {
      set_error(error, "malformed period");
      return std::nullopt;
    }
    tc.periods.push_back(p);
  }
  return tc;
}

}  // namespace sesp
