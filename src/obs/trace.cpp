#include "obs/trace.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace sesp::obs {

TraceSink::TraceSink()
    : epoch_(std::chrono::steady_clock::now()),
      epoch_unix_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()) {}

std::int64_t TraceSink::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSink::record(TraceEvent ev) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void TraceSink::instant(std::string name, std::string category,
                        std::string args_json) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.start_ns = now_ns();
  ev.depth = depth_;
  ev.args_json = std::move(args_json);
  record(std::move(ev));
}

void TraceSink::merge_from(const TraceSink& other) {
  const std::int64_t shift =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.epoch_ -
                                                           epoch_)
          .count();
  for (const TraceEvent& ev : other.events_) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      continue;
    }
    TraceEvent shifted = ev;
    shifted.start_ns += shift;
    events_.push_back(std::move(shifted));
  }
  dropped_ += other.dropped_;
}

void TraceSink::write_jsonl(std::ostream& os) const {
  {
    // Leading metadata line: anchors this file's ts=0 to wall-clock time so
    // traces written by different processes can be placed on one timeline.
    JsonWriter w(os);
    w.begin_object();
    w.field("name", "trace.meta");
    w.field("cat", "meta");
    w.field("ph", "M");
    w.field("ts", 0.0);
    w.field("pid", static_cast<std::int64_t>(1));
    w.field("tid", static_cast<std::int64_t>(1));
    w.key("args");
    w.begin_object();
    w.field("epoch_unix_us", epoch_unix_us_);
    w.end_object();
    w.end_object();
    os << '\n';
  }
  for (const TraceEvent& ev : events_) {
    JsonWriter w(os);
    w.begin_object();
    w.field("name", ev.name);
    w.field("cat", ev.category);
    w.field("ph", ev.phase == TraceEvent::Phase::kComplete ? "X" : "i");
    w.field("ts", static_cast<double>(ev.start_ns) / 1000.0);  // microseconds
    if (ev.phase == TraceEvent::Phase::kComplete)
      w.field("dur", static_cast<double>(ev.duration_ns) / 1000.0);
    w.field("depth", static_cast<std::int64_t>(ev.depth));
    w.field("pid", static_cast<std::int64_t>(1));
    w.field("tid", static_cast<std::int64_t>(1));
    if (!ev.args_json.empty()) {
      w.key("args");
      // Fragments are caller-rendered; route them through the parser +
      // writer so a malformed fragment cannot poison the line — it travels
      // as an escaped string instead, and well-formed fragments re-render
      // byte-identically (parse → write fixpoint).
      if (const auto doc = parse_json(ev.args_json))
        write_json_value(w, *doc);
      else
        w.value(ev.args_json);
    }
    w.end_object();
    os << '\n';
  }
}

Span::Span(TraceSink* sink, std::string_view name, std::string_view category,
           std::string args_json)
    : sink_(sink) {
  if (!sink_) return;
  name_ = std::string(name);
  category_ = std::string(category);
  args_json_ = std::move(args_json);
  start_ns_ = sink_->now_ns();
  depth_ = sink_->depth_;
  ++sink_->depth_;
}

Span::~Span() {
  if (!sink_) return;
  --sink_->depth_;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = std::move(name_);
  ev.category = std::move(category_);
  ev.start_ns = start_ns_;
  ev.duration_ns = sink_->now_ns() - start_ns_;
  ev.depth = depth_;
  ev.args_json = std::move(args_json_);
  sink_->record(std::move(ev));
}

void Span::set_args(std::string args_json) {
  if (!sink_) return;
  args_json_ = std::move(args_json);
}

std::string args_object(std::initializer_list<std::string> fields) {
  std::string out = "{";
  bool first = true;
  for (const std::string& f : fields) {
    if (f.empty()) continue;
    if (!first) out += ',';
    first = false;
    out += f;
  }
  out += '}';
  return out;
}

std::string arg_int(std::string_view key, std::int64_t value) {
  return "\"" + json_escape(key) + "\":" + std::to_string(value);
}

std::string arg_str(std::string_view key, std::string_view value) {
  return "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
}

}  // namespace sesp::obs
