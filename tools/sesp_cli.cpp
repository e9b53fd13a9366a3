// sesp_cli — command-line driver for the session-problem laboratory.
//
// Runs any (substrate, timing model, algorithm, adversary) combination,
// verifies the resulting timed computation, compares against the Table 1
// bounds, and optionally dumps the trace in the sesp-trace format.
//
//   sesp_cli --substrate=mpm --model=sporadic --s=5 --n=4 <continued>
//     --c1=1 --d1=2 --d2=10 --adversary=worst
//   sesp_cli --substrate=smm --model=periodic --s=4 --n=9 --b=3
//   sesp_cli --substrate=p2p --model=async --topology=ring --s=3 --n=8
//   sesp_cli --check-certificate=cert.txt
//   sesp_cli --journal-inspect=run.journal [--json]
//
// Exit status: 0 when the run solves the instance (or the certificate is
// valid), 1 otherwise, 2 on usage errors, 75 (EX_TEMPFAIL) when a
// supervised run was interrupted and can be resumed with --resume.

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/certificate.hpp"
#include "exec/jobs.hpp"
#include "algorithms/p2p/knowledge_algs.hpp"
#include "analysis/session_stats.hpp"
#include "analysis/timeline.hpp"
#include "model/trace_io.hpp"
#include "p2p/p2p_simulator.hpp"
#include "obs/json.hpp"
#include "sim/run_spec.hpp"
#include "cli_flags.hpp"
#include "cli_observation.hpp"
#include "cli_recovery.hpp"

namespace sesp {
namespace {

struct Options {
  RunSpec run;
  std::string topology = "complete";
  std::string faults;
  std::string dump_trace;
  std::string check_certificate;
  std::string journal_inspect;
  bool inspect_json = false;
  bool degradation = false;
  bool print_trace = false;
  bool timeline = false;
  bool stats = false;
  bool show_bounds = true;
  ObservationOptions obs;
  RecoveryOptions recovery;
};

// Fingerprint of every result-affecting option: the checkpoint journal must
// only replay into the identical sweep. --jobs and the output/observability
// flags are deliberately excluded — resuming at a different job count (or
// with different reporting) is supported and bit-identical.
std::uint64_t config_digest(const Options& opt) {
  const RunSpec& r = opt.run;
  std::string c = r.substrate + '|' + r.model + '|' + r.adversary + '|' +
                  opt.topology + '|' + opt.faults + '|' +
                  (opt.degradation ? "degradation" : "single") + '|' +
                  std::to_string(r.spec.s) + '|' + std::to_string(r.spec.n) +
                  '|' + std::to_string(r.spec.b) + '|' + ratio_to_text(r.c1) +
                  '|' + ratio_to_text(r.c2) + '|' + ratio_to_text(r.d1) + '|' +
                  ratio_to_text(r.d2) + '|' + std::to_string(r.seed);
  return recovery::fnv1a(c);
}

void usage(std::ostream& os) {
  os << "usage: sesp_cli [options]\n"
        "  --substrate=mpm|smm|p2p      communication substrate\n"
        "  --model=sync|periodic|semisync|sporadic|async\n"
        "  --s=N --n=N --b=N            problem instance\n"
        "  --c1=R --c2=R --d1=R --d2=R  timing constants (rationals: 7/2)\n"
        "  --adversary=worst|lockstep|random  schedule family\n"
        "  --topology=complete|ring|line|star|tree|grid  (p2p only)\n"
        "  --faults=SPEC|random         inject faults (single run); SPEC is a\n"
        "                               comma list: crash:P@K timing:P@K*S\n"
        "                               drop:N%|#ID dup:N%|#ID delay:N%\n"
        "                               extra:R corrupt:N%|@K seed:N\n"
        "  --degradation                crash x loss/corruption grid report\n"
        "  --seed=N                     adversary randomness\n"
        "  --jobs=N                     sweep worker threads (default:\n"
        "                               SESP_JOBS, then hardware)\n"
        "  --print-trace                show the timed computation\n"
        "  --timeline                   render an ASCII timeline\n"
        "  --stats                      per-session statistics\n"
        "  --dump-trace=FILE            write sesp-trace format\n"
        "  --check-certificate=FILE     re-validate a violation certificate\n"
        "  --journal-inspect=FILE       describe a run journal (records,\n"
        "                               config digest, torn tail);\n"
        "                               bare --json for machine output\n";
  ObservationOptions::usage(os);
  RecoveryOptions::usage(os);
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto ratio = [&value]() { return ratio_from_text(value); };
    // Bare --json (no =FILE) selects --journal-inspect's machine output;
    // intercepted before the observability flags, which only define
    // --json=FILE.
    if (key == "--json" && eq == std::string::npos) {
      opt.inspect_json = true;
      continue;
    }
    if (opt.obs.consume(key, value)) continue;
    if (opt.recovery.consume(key, value)) continue;
    if (key == "--journal-inspect") opt.journal_inspect = value;
    else if (key == "--substrate") opt.run.substrate = value;
    else if (key == "--model") opt.run.model = value;
    else if (key == "--adversary") opt.run.adversary = value;
    else if (key == "--topology") opt.topology = value;
    else if (key == "--faults") opt.faults = value;
    else if (key == "--degradation") opt.degradation = true;
    else if (key == "--dump-trace") opt.dump_trace = value;
    else if (key == "--check-certificate") opt.check_certificate = value;
    else if (key == "--s")
      opt.run.spec.s = flag_value<std::int64_t>(key, value);
    else if (key == "--n")
      opt.run.spec.n = flag_value<std::int32_t>(key, value);
    else if (key == "--b")
      opt.run.spec.b = flag_value<std::int32_t>(key, value);
    else if (key == "--seed")
      opt.run.seed = flag_value<std::uint64_t>(key, value);
    else if (key == "--jobs") {
      const int jobs = flag_value<int>(key, value);
      if (jobs < 1) {
        std::cerr << "--jobs must be >= 1\n";
        return std::nullopt;
      }
      exec::set_default_jobs(jobs);
    }
    else if (key == "--print-trace") opt.print_trace = true;
    else if (key == "--timeline") opt.timeline = true;
    else if (key == "--stats") opt.stats = true;
    else if (key == "--c1" || key == "--c2" || key == "--d1" ||
             key == "--d2") {
      const auto r = ratio();
      if (!r) {
        std::cerr << "bad rational for " << key << "\n";
        return std::nullopt;
      }
      if (key == "--c1") opt.run.c1 = *r;
      if (key == "--c2") opt.run.c2 = *r;
      if (key == "--d1") opt.run.d1 = *r;
      if (key == "--d2") opt.run.d2 = *r;
    } else if (key == "--help" || key == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << key << "\n";
      return std::nullopt;
    }
  }
  if (opt.inspect_json && opt.journal_inspect.empty()) {
    std::cerr << "bare --json requires --journal-inspect "
                 "(use --json=FILE for run metrics)\n";
    return std::nullopt;
  }
  const auto known = [](const char* flag, const std::string& value,
                        std::initializer_list<const char*> valid) {
    std::string want;
    for (const char* v : valid) {
      if (value == v) return true;
      want += (want.empty() ? "" : "|") + std::string(v);
    }
    std::cerr << "unknown " << flag << "=" << value << " (want " << want
              << ")\n";
    return false;
  };
  if (!known("--substrate", opt.run.substrate, {"mpm", "smm", "p2p"}) ||
      !known("--adversary", opt.run.adversary,
             {"worst", "lockstep", "random"}) ||
      !known("--topology", opt.topology,
             {"complete", "ring", "line", "star", "tree", "grid"}))
    return std::nullopt;
  if (!run_constraints(opt.run)) {
    std::cerr << "unknown --model=" << opt.run.model
              << " (want sync|periodic|semisync|sporadic|async)\n";
    return std::nullopt;
  }
  return opt;
}

// Builds the fault injector requested by --faults ("random" draws a seeded
// chaos plan; anything else goes through FaultPlan::parse). Sets *status to 2
// and returns nullptr on a malformed spec; returns nullptr with *status
// untouched when no faults were requested.
std::unique_ptr<FaultInjector> make_injector(const Options& opt,
                                             std::int32_t num_processes,
                                             int* status) {
  if (opt.faults.empty()) return nullptr;
  FaultPlan plan;
  if (opt.faults == "random") {
    plan = FaultPlan::random(opt.run.seed, num_processes);
  } else {
    std::string error;
    const auto parsed = FaultPlan::parse(opt.faults, &error);
    if (!parsed) {
      std::cerr << "bad --faults: " << error << "\n";
      *status = 2;
      return nullptr;
    }
    plan = *parsed;
  }
  std::cout << "faults:      " << plan.to_string() << "\n";
  return std::make_unique<FaultInjector>(plan);
}

// Per-run classification line shown whenever faults were injected: the
// outcome bucket, the injected-event count, and the one-line diagnostic.
int print_fault_outcome(const FaultInjector& inj,
                        const std::optional<SimError>& error, const Verdict& v,
                        const ProblemSpec& spec) {
  const RunOutcome outcome = classify_outcome(error, v);
  std::cout << "injected:    " << inj.log().size() << "\n"
            << "outcome:     " << to_string(outcome) << "  ["
            << outcome_diagnostic(error, v, spec) << "]\n";
  return outcome == RunOutcome::kSolved ? 0 : 1;
}

void print_verdict(const Verdict& v, const ProblemSpec& spec) {
  std::cout << "sessions:    " << v.sessions << " (need " << spec.s << ")\n"
            << "admissible:  " << (v.admissible ? "yes" : "no");
  if (!v.admissible) std::cout << "  [" << v.admissibility_violation << "]";
  std::cout << "\nsolves:      " << (v.solves ? "yes" : "no") << "\n";
  if (v.termination_time)
    std::cout << "termination: " << v.termination_time->to_string() << "\n";
  std::cout << "rounds:      " << v.rounds.rounds_ceiling() << "\n";
  if (v.gamma) std::cout << "gamma:       " << v.gamma->to_string() << "\n";
}

void maybe_dump(const Options& opt, const TimedComputation& trace) {
  if (opt.print_trace) std::cout << trace.to_string(100);
  if (opt.timeline) std::cout << '\n' << render_timeline(trace);
  if (opt.stats)
    std::cout << "stats:       " << compute_session_stats(trace).to_string()
              << "\n";
  if (!opt.dump_trace.empty()) {
    std::ofstream out(opt.dump_trace);
    out << to_text(trace);
    std::cout << "trace written to " << opt.dump_trace << "\n";
  }
}

// --journal-inspect: a read-only description of a sesp-journal/1 file —
// record counts per stage, failure payloads and torn-tail status. Exit 0
// on a readable journal, 2 otherwise.
int run_journal_inspect(const Options& opt) {
  const recovery::JournalSnapshot snap =
      recovery::read_journal_snapshot(opt.journal_inspect);
  if (!snap.ok) {
    std::cerr << snap.error << "\n";
    return 2;
  }

  // Per-stage rollup in first-appearance order; failures are slots whose
  // payload is an encoded TaskFailure.
  struct StageStats {
    std::int64_t slots = 0;
    std::int64_t failures = 0;
  };
  std::vector<std::pair<std::string, StageStats>> stages;
  for (const recovery::JournalRecord& r : snap.records) {
    auto it = stages.begin();
    for (; it != stages.end(); ++it)
      if (it->first == r.stage) break;
    if (it == stages.end()) {
      stages.emplace_back(r.stage, StageStats{});
      it = stages.end() - 1;
    }
    ++it->second.slots;
    if (recovery::decode_task_failure(r.payload)) ++it->second.failures;
  }

  if (opt.inspect_json) {
    obs::JsonWriter w(std::cout);
    w.begin_object();
    w.field("schema", "sesp-journal-inspect/2");
    w.field("path", opt.journal_inspect);
    w.field("tool", snap.tool);
    w.field("config", recovery::fnv1a_hex(snap.config_digest));
    w.field("records", static_cast<std::int64_t>(snap.records.size()));
    w.field("torn_dropped", snap.dropped);
    w.key("stages");
    w.begin_array();
    for (const auto& [stage, stats] : stages) {
      w.begin_object();
      w.field("stage", stage);
      w.field("slots", stats.slots);
      w.field("failures", stats.failures);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << "\n";
    return 0;
  }

  std::cout << "journal:     " << opt.journal_inspect << "\n"
            << "tool:        " << snap.tool << "\n"
            << "config:      " << recovery::fnv1a_hex(snap.config_digest)
            << "\n"
            << "records:     " << snap.records.size() << " slot(s) across "
            << stages.size() << " stage(s)\n";
  for (const auto& [stage, stats] : stages) {
    std::cout << "  " << stage << ": " << stats.slots << " slot(s)";
    if (stats.failures > 0)
      std::cout << ", " << stats.failures << " failure(s)";
    std::cout << "\n";
  }
  std::cout << "torn tail:   "
            << (snap.dropped > 0
                    ? std::to_string(snap.dropped) + " record(s) dropped"
                    : std::string("none"))
            << "\n";
  return 0;
}

int run_certificate_check(const Options& opt) {
  std::ifstream in(opt.check_certificate);
  if (!in) {
    std::cerr << "cannot open " << opt.check_certificate << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto cert = certificate_from_text(buf.str(), &error);
  if (!cert) {
    std::cerr << "parse error: " << error << "\n";
    return 2;
  }
  const CertificateCheck check = check_certificate(*cert);
  std::cout << "construction: " << cert->construction << "\n"
            << "algorithm:    " << cert->algorithm << "\n"
            << "instance:     s=" << cert->spec.s << " n=" << cert->spec.n
            << " b=" << cert->spec.b << "\n"
            << "sessions:     " << check.sessions << " (violation needs < "
            << cert->spec.s << ")\n"
            << "verdict:      " << (check.valid ? "VALID" : "invalid") << "\n";
  if (!check.valid) std::cout << "detail:       " << check.detail << "\n";
  return check.valid ? 0 : 1;
}

// The tail every single run shares: verdict, optional trace output and,
// when faults were injected, the outcome classification.
int report_run(const Options& opt, const TimedComputation& trace,
               const Verdict& verdict, const std::optional<SimError>& error,
               const FaultInjector* injector) {
  print_verdict(verdict, opt.run.spec);
  maybe_dump(opt, trace);
  if (injector)
    return print_fault_outcome(*injector, error, verdict, opt.run.spec);
  return verdict.solves ? 0 : 1;
}

// MPM and SMM: the Table-1 algorithm of the spec under its degradation grid,
// its worst-case family, or one run.
int run_table1(const Options& opt, const RunContext& ctx) {
  const RunPlan plan = *RunPlan::resolve(opt.run);
  std::cout << "algorithm:   " << plan.algorithm() << "\n";

  if (opt.degradation) {
    const DegradationReport report = plan.degradation(ctx);
    if (ctx.interrupted()) return 1;  // partial; finish() maps to 75
    std::cout << report.to_string()
              << "solved/degraded/diagnosed: "
              << report.count(RunOutcome::kSolved) << "/"
              << report.count(RunOutcome::kDegraded) << "/"
              << report.count(RunOutcome::kDiagnosed) << "\n";
    return 0;
  }

  int status = 0;
  const auto injector = make_injector(opt, run_processes(opt.run), &status);
  if (status) return status;

  if (opt.run.adversary == "worst" && !injector) {
    const WorstCase wc = plan.worst_case(ctx);
    if (ctx.interrupted()) return 1;
    std::cout << "runs:        " << wc.runs << "\n"
              << "max time:    " << wc.max_termination.to_string() << "\n";
    if (opt.run.substrate == "mpm")
      std::cout << "min sessions:" << wc.min_sessions << "\n";
    else
      std::cout << "max rounds:  " << wc.max_rounds << "\n";
    std::cout << "all solved:  " << (wc.all_solved ? "yes" : "no") << "\n";
    if (!wc.first_failure.empty())
      std::cout << "failure:     " << wc.first_failure << "\n";
    return wc.all_solved ? 0 : 1;
  }

  const SpecOutcome out = plan.run(injector.get(), ctx.observer);
  return report_run(opt, out.trace, out.verdict, out.error, injector.get());
}

int run_p2p(const Options& opt, const RunContext& ctx) {
  const ProblemSpec& spec = opt.run.spec;
  if (spec.n < 1) {
    std::cerr << "p2p needs n >= 1\n";
    return 2;
  }
  Topology topo = Topology::complete(spec.n);
  if (opt.topology == "ring") topo = Topology::ring(spec.n);
  else if (opt.topology == "line") topo = Topology::line(spec.n);
  else if (opt.topology == "star") topo = Topology::star(spec.n);
  else if (opt.topology == "tree") topo = Topology::tree(spec.n, 2);
  else if (opt.topology == "grid")
    topo = Topology::grid(2, (spec.n + 1) / 2);
  if (topo.num_nodes() != spec.n) {
    std::cerr << "topology size mismatch\n";
    return 2;
  }

  const auto constraints = *run_constraints(opt.run);
  std::unique_ptr<P2pAlgorithmFactory> factory;
  if (opt.run.model == "sync") factory = std::make_unique<P2pSyncFactory>();
  else if (opt.run.model == "periodic")
    factory = std::make_unique<P2pPeriodicFactory>();
  else factory = std::make_unique<P2pRoundsFactory>();
  std::cout << "algorithm:   " << factory->name() << "\n"
            << "topology:    " << topo.name()
            << " (diameter " << topo.diameter() << ")\n";

  // P2P runs always step in lockstep under maximal delays.
  RunSpec lockstep = opt.run;
  lockstep.adversary = "lockstep";
  const auto sched = run_scheduler(lockstep, constraints);
  const auto delays = run_delays(lockstep);
  int status = 0;
  const auto injector = make_injector(opt, spec.n, &status);
  if (status) return status;
  const P2pOutcome out =
      run_p2p_once(spec, constraints, topo, *factory, *sched, *delays,
                   P2pRunLimits{}, injector.get(), ctx.observer);
  return report_run(opt, out.run.trace, out.verdict, out.run.error,
                    injector.get());
}

}  // namespace
}  // namespace sesp

static int cli_main(int argc, char** argv) {
  const auto opt = sesp::parse(argc, argv);
  if (!opt) {
    sesp::usage(std::cerr);
    return 2;
  }
  if (!opt->journal_inspect.empty())
    return sesp::run_journal_inspect(*opt);
  if (!opt->check_certificate.empty())
    return sesp::run_certificate_check(*opt);

  // Every run below reports into the scope's observer; the metrics / JSON
  // / trace outputs are emitted when the scope closes.
  sesp::ObservationScope observation(opt->obs, "sesp_cli");
  // Checkpoint/resume supervision for the sweeps underneath (worst-case
  // families, degradation grids): journal flags are validated before any
  // work runs, and a drained SIGINT/SIGTERM maps to exit 75 in finish().
  sesp::RecoveryScope recovery(opt->recovery, "sesp_cli",
                               sesp::config_digest(*opt));
  if (recovery.error()) return 2;
  const sesp::RunContext ctx{observation.observer(), recovery.supervisor()};

  const sesp::RunSpec& run = opt->run;
  std::cout << "substrate:   " << run.substrate << "\n"
            << "model:       " << run.model << "\n"
            << "instance:    s=" << run.spec.s << " n=" << run.spec.n
            << " b=" << run.spec.b << "\n";
  return recovery.finish(run.substrate == "p2p" ? sesp::run_p2p(*opt, ctx)
                                                : sesp::run_table1(*opt, ctx));
}

// Exact arithmetic that leaves int64 (e.g. coprime denominators near 1e6)
// is a property of the requested instance, not a crash: report it and exit
// 2 like any other unusable input.
int main(int argc, char** argv) {
  try {
    return cli_main(argc, argv);
  } catch (const sesp::ArithmeticOverflow& e) {
    std::cerr << "sesp_cli: instance not representable in exact arithmetic ("
              << e.what() << ")\n";
    return 2;
  }
}
