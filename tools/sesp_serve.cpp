// sesp_serve — the overload-safe bounds-and-runs service (docs/serving.md).
//
// Serves the sesp-serve/1 line-delimited JSON protocol on localhost TCP:
// Table-1 bound cells from a digest-keyed cache, simulator runs and replays
// through an admission-controlled pool, and journaled degradation sweeps
// with byte-identical resume. Every overload path degrades to a structured
// reply (BadRequest / Overloaded / Timeout), never a crash.
//
//   sesp_serve --port=0 --journal-dir=journals
//   sesp_serve --port=4515 --journal-dir=journals --resume
//   sesp_serve --port=0 --journal-dir=j --chaos=5   # stop after 5 appends
//
// Prints "listening on 127.0.0.1:<port>" once ready (scripts parse this).
// SIGTERM/SIGINT drain: stop accepting, shed new requests, stop the running
// sweep through its supervisor (journaled, resumable), exit 75
// (EX_TEMPFAIL) when a sweep was interrupted, else 0.

#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "cli_observation.hpp"
#include "recovery/supervisor.hpp"
#include "serve/server.hpp"

namespace {

using sesp::flag_value;

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

struct Options {
  sesp::serve::ServerConfig server;
  sesp::ObservationOptions obs;
};

void usage(std::ostream& os) {
  os << "usage: sesp_serve [options]\n"
        "  --port=N                     listen port (0 = ephemeral)\n"
        "  --journal-dir=DIR            sweep journals (durability + resume)\n"
        "  --resume                     re-enqueue journaled sweeps at start\n"
        "  --chaos=N                    stop the first sweep after N journal\n"
        "                               appends, then drain (deterministic\n"
        "                               restart-under-load testing)\n"
        "  --max-connections=N          concurrent connections (default 64)\n"
        "  --heavy-workers=N            run/replay worker threads (default 2)\n"
        "  --max-queue=N                queued heavy jobs (default 8)\n"
        "  --max-sweep-queue=N          queued sweeps (default 4)\n"
        "  --rate=R --burst=R           per-connection token bucket\n"
        "  --deadline-ms=N              default per-request deadline\n"
        "  --retry-after-ms=N           Overloaded retry hint\n"
        "  --write-timeout-ms=N         slow-client reply write budget\n"
        "  --idle-timeout-ms=N          silent-connection timeout\n"
        "  --cache-capacity=N           bound-result LRU entries\n"
        "  --test-heavy-delay-ms=N      artificial job delay (tests only)\n";
  sesp::ObservationOptions::usage(os);
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (opt.obs.consume(key, value)) continue;
    if (key == "--port")
      opt.server.port = flag_value<std::uint16_t>(key, value);
    else if (key == "--journal-dir") opt.server.journal_dir = value;
    else if (key == "--resume") opt.server.resume = true;
    else if (key == "--chaos")
      opt.server.chaos_stop_after = flag_value<std::int64_t>(key, value);
    else if (key == "--max-connections")
      opt.server.admission.max_connections = flag_value<int>(key, value);
    else if (key == "--heavy-workers")
      opt.server.admission.heavy_workers = flag_value<int>(key, value);
    else if (key == "--max-queue")
      opt.server.admission.max_queue = flag_value<int>(key, value);
    else if (key == "--max-sweep-queue")
      opt.server.admission.max_sweep_queue = flag_value<int>(key, value);
    else if (key == "--rate")
      opt.server.admission.rate_per_sec = flag_value<double>(key, value);
    else if (key == "--burst")
      opt.server.admission.burst = flag_value<double>(key, value);
    else if (key == "--deadline-ms")
      opt.server.admission.default_deadline_ms =
          flag_value<std::int64_t>(key, value);
    else if (key == "--retry-after-ms")
      opt.server.admission.retry_after_ms =
          flag_value<std::int64_t>(key, value);
    else if (key == "--write-timeout-ms")
      opt.server.admission.write_timeout_ms =
          flag_value<std::int64_t>(key, value);
    else if (key == "--idle-timeout-ms")
      opt.server.admission.idle_timeout_ms =
          flag_value<std::int64_t>(key, value);
    else if (key == "--cache-capacity")
      opt.server.admission.cache_capacity = flag_value<std::size_t>(key, value);
    else if (key == "--test-heavy-delay-ms")
      opt.server.admission.test_heavy_delay_ms =
          flag_value<std::int64_t>(key, value);
    else if (key == "--help" || key == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << key << "\n";
      return std::nullopt;
    }
  }
  if (opt.server.resume && opt.server.journal_dir.empty()) {
    std::cerr << "--resume requires --journal-dir\n";
    return std::nullopt;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (!opt) {
    usage(std::cerr);
    return 2;
  }

  // Installed for the server's whole lifetime: at stop() the server folds
  // its private registry/profiler and the serve.* counters into this scope,
  // which then emits --metrics / --json / --profile outputs.
  sesp::ObservationScope observation(opt->obs, "sesp_serve");

  sesp::serve::Server server(opt->server);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "sesp_serve: " << error << "\n";
    return 2;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  // Park until a signal or a chaos-triggered drain; the server threads do
  // all the work.
  while (g_signal.load() == 0 && !server.draining())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.request_drain();
  server.stop();
  if (server.interrupted()) {
    std::cerr << "sesp_serve: drained with interrupted sweep(s); resume with "
                 "--resume --journal-dir=<dir>\n";
    return sesp::recovery::kExitInterrupted;
  }
  return 0;
}
