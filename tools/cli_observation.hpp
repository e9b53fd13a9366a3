#pragma once

// Shared --metrics / --json=FILE / --trace-events=FILE / --profile handling
// for the command-line tools. ObservationScope owns one MetricsRegistry /
// TraceSink / Profiler for the duration of main(); the tool passes
// observer() to what it runs (in a RunContext, or as the observer argument
// of a single run), and every layer underneath reports into it. When no
// flag is given observer() is null and the run keeps the zero-observer hot
// path.
//
// Outputs at scope exit:
//   --metrics            human-readable metrics table on stdout
//   --json=FILE          {"schema": "sesp-run/1", "tool": ..., "metrics":
//                        {...}, "profile": {...}, "trace_events": N,
//                        "trace_dropped": N}
//   --trace-events=FILE  Chrome-trace-flavoured JSONL span/instant stream
//   --profile            per-phase wall-clock table on stderr (stderr so a
//                        profiled run's stdout stays byte-identical to an
//                        unprofiled one)

#include <fstream>
#include <iostream>
#include <string>

#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"

namespace sesp {

struct ObservationOptions {
  bool metrics = false;
  bool profile = false;
  std::string json_out;
  std::string trace_events;

  bool any() const {
    return metrics || profile || !json_out.empty() || !trace_events.empty();
  }

  // Returns true when `key` (with `value` from a --key=value split) is one
  // of the observability flags; parse loops try this before their own keys.
  bool consume(const std::string& key, const std::string& value) {
    if (key == "--metrics") metrics = true;
    else if (key == "--profile") profile = true;
    else if (key == "--json") json_out = value;
    else if (key == "--trace-events") trace_events = value;
    else return false;
    return true;
  }

  static void usage(std::ostream& os) {
    os << "  --metrics                    print the metrics table at exit\n"
          "  --profile                    print per-phase timings on stderr\n"
          "  --json=FILE                  write metrics as JSON at exit\n"
          "  --trace-events=FILE          write span/instant trace JSONL\n";
  }
};

class ObservationScope {
 public:
  ObservationScope(const ObservationOptions& opt, std::string tool)
      : opt_(opt), tool_(std::move(tool)) {
    if (!opt_.any()) return;
    observer_ = obs::Observer(&registry_,
                              opt_.trace_events.empty() ? nullptr : &sink_);
    if (opt_.profile) observer_.profiler = &profiler_;
  }

  ~ObservationScope() {
    if (!opt_.any()) return;
    if (opt_.metrics) std::cout << registry_.to_string();
    if (opt_.profile) std::cerr << profiler_.to_string();
    if (!opt_.json_out.empty()) {
      std::ofstream out(opt_.json_out);
      if (!out) {
        std::cerr << "cannot open " << opt_.json_out << "\n";
      } else {
        obs::JsonWriter w(out);
        w.begin_object();
        w.field("schema", "sesp-run/1");
        w.field("tool", tool_);
        w.key("metrics");
        registry_.write_json(w);
        w.key("profile");
        profiler_.write_json(w);
        w.field("trace_events",
                static_cast<std::int64_t>(sink_.events().size()));
        w.field("trace_dropped", sink_.dropped());
        w.end_object();
        out << "\n";
        std::cout << "metrics written to " << opt_.json_out << "\n";
      }
    }
    if (!opt_.trace_events.empty()) {
      std::ofstream out(opt_.trace_events);
      if (!out) {
        std::cerr << "cannot open " << opt_.trace_events << "\n";
      } else {
        sink_.write_jsonl(out);
        std::cout << "trace events written to " << opt_.trace_events
                  << " (" << sink_.events().size() << " events";
        if (sink_.dropped() > 0)
          std::cout << ", " << sink_.dropped() << " dropped";
        std::cout << ")\n";
      }
    }
  }

  ObservationScope(const ObservationScope&) = delete;
  ObservationScope& operator=(const ObservationScope&) = delete;

  // Null when no observability flag was given.
  obs::Observer* observer() noexcept {
    return opt_.any() ? &observer_ : nullptr;
  }

 private:
  ObservationOptions opt_;
  std::string tool_;
  obs::MetricsRegistry registry_;
  obs::TraceSink sink_;
  obs::Profiler profiler_;
  obs::Observer observer_;
};

}  // namespace sesp
