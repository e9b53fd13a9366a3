// sesp_perfbench: the repository benchmark.
//
//   sesp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: table1-sweep, conformance, exhaustive, serve-mix (README.md
// in this directory says why each exists). With --trace 0 the run is
// untraced and reports the end-to-end metrics; with --trace 1 it runs the
// same workload untraced and then traced, prints the per-layer self-time
// table and reports the per-layer metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The batch
// workloads time their set-up by starting this program again with
// --setup-probe, which sets the workload up and exits without output.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "exec/jobs.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::WorkloadResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json at the repository root (the self-test checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"steps_per_s", "1/s"}, {"runs_per_s", "1/s"},
    {"units_per_s", "1/s"},   {"unit_ms_p50", "ms"},  {"unit_ms_p90", "ms"},
    {"unit_ms_p99", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"mpm.runs", "count"},
    {"mpm.steps", "count"},
    {"mpm.ns_per_step", "ns"},
    {"mpm.ns_per_run", "ns"},
    {"smm.steps", "count"},
    {"smm.ns_per_step.n4", "ns"},
    {"smm.ns_per_step.n64", "ns"},
    {"p2p.steps", "count"},
    {"p2p.ns_per_step", "ns"},
    {"verify.calls", "count"},
    {"verify.ns_per_step", "ns"},
    {"verify.share", "ratio"},
    {"experiment.cells", "count"},
    {"experiment.self_ms", "ms"},
    {"exec.tasks", "count"},
    {"exec.utilization", "ratio"},
    {"exec.idle_s", "s"},
    {"exhaustive.schedules", "count"},
    {"exhaustive.ns_per_schedule", "ns"},
    {"exhaustive.steps_per_schedule", "steps"},
    {"exhaustive.attempts_per_schedule", "ratio"},
    {"conformance.generate_us", "us"},
    {"conformance.check_us_p50", "us"},
    {"conformance.sim_share", "ratio"},
    {"oracle.replay_share", "ratio"},
    {"oracle.admissibility_share", "ratio"},
    {"oracle.reference_share", "ratio"},
    {"oracle.retimer_share", "ratio"},
    {"serve.lat_ms_p50.bound", "ms"},
    {"serve.lat_ms_p50.run", "ms"},
    {"serve.lat_ms_p50.worst", "ms"},
    {"serve.lat_ms_p50.sweep", "ms"},
    {"serve.lat_ms_p50.low", "ms"},
    {"serve.lat_ms_p99.low", "ms"},
    {"serve.parse_ns", "ns"},
    {"serve.digest_ns", "ns"},
    {"serve.render_ns", "ns"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.overloaded", "count"},
    {"serve.timeout", "count"},
    {"serve.rate_limited", "count"},
    {"serve.coalesced", "count"},
    {"serve.exec_share.run", "ratio"},
    {"recovery.journal_appends", "count"},
    {"gen.lag_ms_p99", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sesp_perfbench: " << why
            << "\nusage: sesp_perfbench --workload "
               "<table1-sweep|conformance|exhaustive|serve-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] "
               "[--plant-wrong-expectation] [--record-expected] "
               "[--commit <id>]\n";
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":{\"value\":" << number(m.value)
       << ",\"unit\":\"" << m.unit << "\"}";
  }
  os << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  // The fixed, recorded job count of every workload.
  options.jobs = std::min(4, sesp::exec::hardware_jobs());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--plant-wrong-expectation") {
        options.plant_wrong_expectation = true;
      } else if (arg == "--record-expected") {
        options.record_expected = true;
      } else if (arg == "--setup-probe") {
        options.setup_probe = true;
      } else if (arg == "--commit") {
        commit = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (options.seconds <= 0) usage("--seconds must be positive");
  sesp::exec::set_default_jobs(options.jobs);

  WorkloadResult result;
  if (options.workload == "table1-sweep") {
    result = perfbench::run_table1_sweep(options);
  } else if (options.workload == "conformance") {
    result = perfbench::run_conformance_batches(options);
  } else if (options.workload == "exhaustive") {
    result = perfbench::run_exhaustive_walks(options);
  } else if (options.workload == "serve-mix") {
    result = perfbench::run_serve_mix(options);
  } else {
    usage("unknown workload " + options.workload);
  }
  if (options.setup_probe) return result.failed == 0 ? 0 : 1;

  // The reported set is exactly the declared one: every declared metric of
  // the mode, with the declared unit. A per-layer metric a workload does not
  // exercise reads 0.
  std::map<std::string, Metric> reported;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.per_layer.find(spec.name);
      reported[spec.name] = {it == result.per_layer.end() ? 0.0
                                                          : it->second.value,
                             spec.unit};
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = result.end_to_end.find(spec.name);
      if (it == result.end_to_end.end()) {
        std::cerr << "sesp_perfbench: workload did not report " << spec.name
                  << "\n";
        return 1;
      }
      reported[spec.name] = {it->second.value, spec.unit};
    }
  }

  const std::string fingerprint =
      "{\"cpu\":\"" + json_escape(cpu_model()) + "\",\"logical_cores\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"jobs\":" + std::to_string(options.jobs) + ",\"build_type\":\"" +
      SESP_PERFBENCH_BUILD_TYPE + "\",\"commit\":\"" + json_escape(commit) +
      "\",\"seed\":" + std::to_string(options.seed) + ",\"workload\":\"" +
      options.workload + "\",\"trace\":" + (options.trace ? "1" : "0") +
      ",\"seconds\":" + number(options.seconds) + "}";

  std::cout << "workload " << options.workload << " (seed " << options.seed
            << ", " << options.seconds << " s, trace "
            << (options.trace ? 1 : 0) << ")\n"
            << "fingerprint " << fingerprint << "\n"
            << result.report;
  for (const std::string& e : result.errors)
    std::cout << "CORRECTNESS FAILURE: " << e << "\n";
  const double failed_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::cout << "failed_ratio " << number(failed_ratio) << " ratio ("
            << result.failed << " of " << result.attempted << ")\n"
            << "peak_rss_mb " << number(perfbench::peak_rss_mb())
            << " MB (printed, not gated: allocator arenas make it swing)\n";
  for (const auto& [name, m] : reported)
    std::cout << "metric " << name << " = " << number(m.value) << " "
              << m.unit << "\n";

  const bool correct = result.failed == 0 && result.attempted > 0;
  const std::string line =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(std::max<std::int64_t>(
                              result.attempted, 1)) +
      ",\"failed\":" + std::to_string(result.failed) +
      ",\"metrics\":" + metrics_json(reported) + "}";

  std::error_code ec;
  std::filesystem::create_directories(perfbench::kOutDir, ec);
  std::ofstream record(std::string(perfbench::kOutDir) + "/result-" +
                       options.workload +
                       "-seed" + std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".json");
  record << "{\"fingerprint\":" << fingerprint << ",\"result\":" << line
         << "}\n";

  std::cout << line << std::endl;
  return 0;
}
