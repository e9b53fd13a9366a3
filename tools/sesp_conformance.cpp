// sesp_conformance — property-based conformance harness over the full
// (timing model × substrate) matrix.
//
// Generates seeded random admissible computations per cell, judges each
// against the differential oracle stack (simulator-vs-replay, naive
// reference counters, model-hierarchy containment, time-scaling and retimer
// metamorphic relations), shrinks any failure to a minimal descriptor, and
// emits replayable witness files.
//
//   sesp_conformance --quick                      # 500 cases per cell
//   sesp_conformance --deep --jobs=8              # 5000 cases per cell
//   sesp_conformance --algorithm=broken-halfslack # negative control
//   sesp_conformance --self-test                  # mutated-reference check
//   sesp_conformance --replay=witness_0.txt       # re-judge a witness
//   sesp_conformance --emit-golden=tests/golden   # regenerate corpus
//
// Exit status: 0 when every oracle was silent (or the witness reproduced /
// the self-test passed), 1 on discrepancies, 2 on usage errors, 75
// (EX_TEMPFAIL) when a supervised campaign was interrupted and can be
// resumed with --resume.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_flags.hpp"
#include "cli_observation.hpp"
#include "cli_recovery.hpp"
#include "conformance/harness.hpp"
#include "conformance/witness.hpp"
#include "model/trace_io.hpp"
#include "recovery/journal.hpp"
#include "recovery/supervisor.hpp"

namespace sesp {
namespace {

struct Options {
  conformance::ConformanceConfig config;
  std::string replay_file;
  std::string witness_dir = ".";
  std::string emit_golden;
  bool self_test = false;
  ObservationOptions obs;
  RecoveryOptions recovery;
};

// Fingerprint of every option that shapes which cases run and how they are
// judged; --jobs, --witness-dir and the observability flags only change how
// the campaign executes or reports, not its results (docs/robustness.md).
std::uint64_t config_digest(const Options& opt) {
  std::ostringstream os;
  os << opt.config.cases_per_cell << '|' << opt.config.seed << '|'
     << opt.config.algorithm_override << '|' << opt.config.minimize << '|'
     << opt.config.max_failures << '|' << opt.self_test << '|';
  for (const TimingModel m : opt.config.models) os << to_string(m) << ',';
  os << '|';
  for (const Substrate s : opt.config.substrates)
    os << (s == Substrate::kSharedMemory ? "smm" : "mpm") << ',';
  return recovery::fnv1a(os.str());
}

void usage(std::ostream& os) {
  os << "sesp_conformance [options]\n"
        "  --quick                      500 cases per model x substrate "
        "(default)\n"
        "  --deep                       5000 cases per cell\n"
        "  --cases=N                    explicit per-cell budget\n"
        "  --seed=N                     base seed (default 1)\n"
        "  --jobs=N                     parallel workers (0 = SESP_JOBS / "
        "hardware)\n"
        "  --minimize / --no-minimize   shrink failures (default on)\n"
        "  --algorithm=NAME             override the algorithm under test\n"
        "                               (e.g. broken-halfslack, "
        "broken-toofewsteps:1)\n"
        "  --model=NAME                 restrict to one timing model\n"
        "  --substrate=smm|mpm          restrict to one substrate\n"
        "  --witness-dir=DIR            where failure witnesses go "
        "(default .)\n"
        "  --replay=FILE                re-judge a recorded witness\n"
        "  --self-test                  plant a reference bug; expect the\n"
        "                               oracles to catch and shrink it\n"
        "  --emit-golden=DIR            write one golden trace per cell\n";
  RecoveryOptions::usage(os);
  ObservationOptions::usage(os);
}

std::optional<TimingModel> parse_model(const std::string& name) {
  for (const TimingModel m : conformance::all_models())
    if (to_string(m) == name) return m;
  // Accept the short aliases the other tools use.
  if (name == "sync") return TimingModel::kSynchronous;
  if (name == "semisync") return TimingModel::kSemiSynchronous;
  if (name == "async") return TimingModel::kAsynchronous;
  return std::nullopt;
}

int replay_witness_file(const Options& opt, const RunContext& ctx) {
  std::ifstream in(opt.replay_file);
  if (!in) {
    std::cerr << "cannot open " << opt.replay_file << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto witness = conformance::parse_witness(buffer.str(), &error);
  if (!witness) {
    std::cerr << "bad witness file: " << error << "\n";
    return 2;
  }
  std::cout << "replaying: " << witness->descriptor.to_string() << "\n"
            << "recorded oracle: " << witness->oracle << "\n";
  const auto replay =
      conformance::replay_witness(*witness, opt.config.oracles, ctx);
  if (!replay.reproduced) {
    std::cout << "NOT REPRODUCED: " << replay.detail << "\n";
    return 1;
  }
  std::cout << "reproduced: [" << replay.oracle << "] " << replay.detail
            << "\n";
  return 0;
}

int emit_golden(const Options& opt, const RunContext& ctx) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      const std::uint64_t cell =
          static_cast<std::uint64_t>(model) * 2 +
          (substrate == Substrate::kMessagePassing ? 1 : 0);
      const conformance::CaseDescriptor c = conformance::generate_case(
          model, substrate,
          conformance::case_seed(opt.config.seed, cell, 0),
          opt.config.limits);
      const conformance::GeneratedRun run =
          conformance::run_case(c, ctx.observer);
      if (!run.ok || !run.trace) {
        std::cerr << "golden generation failed for " << c.to_string() << ": "
                  << run.error << "\n";
        return 1;
      }
      const std::string stem = to_string(model) + std::string("_") +
                               (substrate == Substrate::kSharedMemory
                                    ? "smm"
                                    : "mpm");
      const std::string trace_path =
          opt.emit_golden + "/" + stem + ".trace";
      const std::string constraints_path =
          opt.emit_golden + "/" + stem + ".constraints";
      std::ofstream tout(trace_path);
      std::ofstream kout(constraints_path);
      if (!tout || !kout) {
        std::cerr << "cannot write " << trace_path << "\n";
        return 2;
      }
      tout << to_text(*run.trace);
      kout << to_text(c.constraints) << "\n";
      std::cout << "wrote " << trace_path << " ("
                << run.trace->steps().size() << " steps)\n";
    }
  }
  return 0;
}

int run_self_test(Options opt, const RunContext& ctx) {
  // Plant the reference off-by-one; every cell must light up, and the
  // shrunk witness must replay to the same failure under the same options.
  opt.config.oracles.mutate_reference = true;
  opt.config.cases_per_cell = std::min<std::int64_t>(
      opt.config.cases_per_cell, 25);
  opt.config.minimize = true;
  opt.config.max_failures = 2;
  const conformance::ConformanceReport report =
      conformance::run_conformance(opt.config, ctx);
  if (ctx.interrupted()) return 1;
  std::cout << report.summary();
  if (report.total_failures == 0) {
    std::cout << "SELF-TEST FAILED: planted reference bug went undetected\n";
    return 1;
  }
  if (report.failures.empty() || report.failures[0].witness.empty()) {
    std::cout << "SELF-TEST FAILED: no witness produced\n";
    return 1;
  }
  std::string error;
  const auto witness =
      conformance::parse_witness(report.failures[0].witness, &error);
  if (!witness) {
    std::cout << "SELF-TEST FAILED: witness does not parse: " << error
              << "\n";
    return 1;
  }
  const auto replay =
      conformance::replay_witness(*witness, opt.config.oracles, ctx);
  if (!replay.reproduced) {
    std::cout << "SELF-TEST FAILED: witness did not reproduce: "
              << replay.detail << "\n";
    return 1;
  }
  std::cout << "self-test ok: planted bug detected by ["
            << report.failures[0].oracle << "], shrunk witness replays\n";
  return 0;
}

int run(int argc, char** argv) {
  Options opt;
  opt.config.cases_per_cell = 500;
  bool explicit_model = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (opt.obs.consume(key, value)) continue;
    if (opt.recovery.consume(key, value)) continue;
    if (key == "--help" || key == "-h") {
      usage(std::cout);
      return 0;
    } else if (key == "--quick") {
      opt.config.cases_per_cell = 500;
    } else if (key == "--deep") {
      opt.config.cases_per_cell = 5000;
    } else if (key == "--cases") {
      opt.config.cases_per_cell = flag_value<std::int64_t>(key, value);
    } else if (key == "--seed") {
      opt.config.seed = flag_value<std::uint64_t>(key, value);
    } else if (key == "--jobs") {
      opt.config.jobs = flag_value<int>(key, value);
    } else if (key == "--minimize") {
      opt.config.minimize = true;
    } else if (key == "--no-minimize") {
      opt.config.minimize = false;
    } else if (key == "--algorithm") {
      opt.config.algorithm_override = value;
    } else if (key == "--model") {
      const auto model = parse_model(value);
      if (!model) {
        std::cerr << "unknown model: " << value << "\n";
        return 2;
      }
      opt.config.models = {*model};
      explicit_model = true;
    } else if (key == "--substrate") {
      if (value == "smm")
        opt.config.substrates = {Substrate::kSharedMemory};
      else if (value == "mpm")
        opt.config.substrates = {Substrate::kMessagePassing};
      else {
        std::cerr << "unknown substrate: " << value << "\n";
        return 2;
      }
    } else if (key == "--witness-dir") {
      opt.witness_dir = value;
    } else if (key == "--replay") {
      opt.replay_file = value;
    } else if (key == "--self-test") {
      opt.self_test = true;
    } else if (key == "--emit-golden") {
      opt.emit_golden = value;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  // An explicit override of the algorithm under test only makes sense for
  // the substrate that implements it and the timing model it was designed
  // for; restrict both automatically unless the user narrowed them.
  if (!opt.config.algorithm_override.empty()) {
    const bool smm =
        make_smm_factory(opt.config.algorithm_override) != nullptr;
    const bool mpm =
        make_mpm_factory(opt.config.algorithm_override) != nullptr;
    if (!smm && !mpm) {
      std::cerr << "unknown algorithm: " << opt.config.algorithm_override
                << "\n";
      return 2;
    }
    if (smm != mpm && opt.config.substrates.size() > 1)
      opt.config.substrates = {smm ? Substrate::kSharedMemory
                                   : Substrate::kMessagePassing};
    if (!explicit_model) {
      const auto native =
          conformance::native_model(opt.config.algorithm_override);
      if (native) opt.config.models = {*native};
    }
  }

  ObservationScope scope(opt.obs, "sesp_conformance");
  RecoveryScope recovery(opt.recovery, "sesp_conformance",
                         config_digest(opt));
  if (recovery.error()) return 2;
  const RunContext ctx{scope.observer(), recovery.supervisor()};
  if (!opt.replay_file.empty()) return replay_witness_file(opt, ctx);
  if (!opt.emit_golden.empty()) return emit_golden(opt, ctx);
  if (opt.self_test) return recovery.finish(run_self_test(opt, ctx));

  const conformance::ConformanceReport report =
      conformance::run_conformance(opt.config, ctx);
  // A drained interrupt never prints the partial report; the journal holds
  // every finished case and --resume completes the campaign.
  if (ctx.interrupted()) return recovery.finish(1);
  std::cout << report.summary();
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (report.failures[i].witness.empty()) continue;
    const std::string path =
        opt.witness_dir + "/witness_" + std::to_string(i) + ".txt";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      continue;
    }
    out << report.failures[i].witness;
    std::cout << "witness written: " << path
              << " (replay with: sesp_conformance --replay=" << path
              << ")\n";
  }
  return recovery.finish(report.ok() ? 0 : 1);
}

}  // namespace
}  // namespace sesp

int main(int argc, char** argv) { return sesp::run(argc, argv); }
