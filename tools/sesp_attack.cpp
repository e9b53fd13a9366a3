// sesp_attack — run the executable lower-bound constructions against an
// algorithm and, when a violation is certified, write the certificate to a
// file that `sesp_cli --check-certificate=...` (or any third party
// reimplementing the checker) can re-validate.
//
//   sesp_attack --construction=semisync-sm --alg=too-few-steps:2
//       --s=4 --n=8 --c1=1 --c2=12 --out=cert.txt
//   sesp_attack --construction=sporadic-mp --alg=too-few-steps:8
//       --s=4 --n=3 --c1=1 --d1=2 --d2=42 --out=cert.txt
//   sesp_attack --construction=async-sm --alg=too-few-steps:2 --s=4 --n=8
//   sesp_attack --construction=semisync-mp --alg=asp --s=3 --n=3
//       --c1=1 --c2=24 --d2=48            (correct algorithm: no certificate)
//
// Exit status: 0 certificate produced (or correct algorithm survived with
// --expect-survive), 1 no certificate, 2 usage error, 75 (EX_TEMPFAIL) when
// a supervised run was interrupted and can be resumed with --resume.

#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "adversary/certificate.hpp"
#include "adversary/semisync_mp_retimer.hpp"
#include "adversary/semisync_retimer.hpp"
#include "adversary/sporadic_retimer.hpp"
#include "algorithms/mpm/broken_algs.hpp"
#include "exec/jobs.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/broken_algs.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "cli_flags.hpp"
#include "cli_observation.hpp"
#include "cli_recovery.hpp"
#include "model/trace_io.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"

namespace sesp {
namespace {

struct Options {
  std::string construction = "semisync-sm";
  std::string alg = "too-few-steps:2";
  std::string out;
  ProblemSpec spec{4, 8, 2};
  Ratio c1 = 1, c2 = 12, d1 = 0, d2 = 24;
  bool expect_survive = false;
  ObservationOptions obs;
  RecoveryOptions recovery;
};

// Fingerprint of every option that shapes the attack result; --out,
// --expect-survive, --jobs and the observability flags only change how the
// result is reported, not what it is (docs/robustness.md).
std::uint64_t config_digest(const Options& opt) {
  std::ostringstream os;
  os << opt.construction << '|' << opt.alg << '|' << opt.spec.s << '|'
     << opt.spec.n << '|' << opt.spec.b << '|' << ratio_to_text(opt.c1)
     << '|' << ratio_to_text(opt.c2) << '|' << ratio_to_text(opt.d1) << '|'
     << ratio_to_text(opt.d2);
  return recovery::fnv1a(os.str());
}

void usage(std::ostream& os) {
  os << "usage: sesp_attack [options]\n"
        "  --construction=semisync-sm|async-sm|sporadic-mp|semisync-mp\n"
        "  --alg=too-few-steps:K | half-slack | asp | impatient-asp |\n"
        "        step-count | rounds      (availability depends on substrate)\n"
        "  --s=N --n=N --b=N --c1=R --c2=R --d1=R --d2=R\n"
        "  --out=FILE                   write the certificate here\n"
        "  --expect-survive             exit 0 when NO certificate is found\n"
        "  --jobs=N                     sweep worker threads (default:\n"
        "                               SESP_JOBS, then hardware)\n";
  RecoveryOptions::usage(os);
  ObservationOptions::usage(os);
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
    if (opt.recovery.consume(key, value)) continue;
    if (key == "--construction") opt.construction = value;
    else if (key == "--alg") opt.alg = value;
    else if (key == "--out") opt.out = value;
    else if (key == "--s") opt.spec.s = flag_value<std::int64_t>(key, value);
    else if (key == "--n") opt.spec.n = flag_value<int>(key, value);
    else if (key == "--b") opt.spec.b = flag_value<int>(key, value);
    else if (key == "--expect-survive") opt.expect_survive = true;
    else if (key == "--jobs") {
      const int jobs = flag_value<int>(key, value);
      if (jobs < 1) {
        std::cerr << "--jobs must be >= 1\n";
        return std::nullopt;
      }
      exec::set_default_jobs(jobs);
    }
    else if (key == "--c1" || key == "--c2" || key == "--d1" ||
             key == "--d2") {
      const auto r = ratio_from_text(value);
      if (!r) return std::nullopt;
      if (key == "--c1") opt.c1 = *r;
      if (key == "--c2") opt.c2 = *r;
      if (key == "--d1") opt.d1 = *r;
      if (key == "--d2") opt.d2 = *r;
    } else if (key == "--help" || key == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << key << "\n";
      return std::nullopt;
    }
  }
  return opt;
}

std::int64_t alg_param(const std::string& alg) {
  const std::size_t colon = alg.find(':');
  return colon == std::string::npos
             ? 2
             : flag_value<std::int64_t>("--alg", alg.substr(colon + 1));
}

// Everything the tool reports about one attack, in journal-codec form: the
// certificate travels as its textual encoding so a resumed run can rewrite
// --out without re-running the construction.
struct AttackOutcome {
  bool certified = false;
  std::string summary;
  std::string cert_text;
};

std::string encode_outcome(const AttackOutcome& o) {
  recovery::PayloadWriter w;
  w.put_bool("certified", o.certified);
  w.put("summary", o.summary);
  if (!o.cert_text.empty()) w.put("certificate", o.cert_text);
  return w.str();
}

AttackOutcome decode_outcome(const std::string& payload) {
  AttackOutcome o;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    o.summary = failure->to_string();
    return o;
  }
  const recovery::PayloadReader r(payload);
  o.certified = r.get_bool("certified", false);
  o.summary = r.get("summary");
  o.cert_text = r.get("certificate");
  return o;
}

// Runs the whole construction as a single supervised slot: a journaled run
// resumes straight to the decoded outcome, and a deadline or exception
// becomes a certified=false outcome instead of a process abort. The attack
// observes through the slot's context.
AttackOutcome run_supervised_attack(
    const RunContext& ctx,
    const std::function<AttackOutcome(const RunContext&)>& attack) {
  AttackOutcome outcome;
  recovery::supervised_sweep(
      ctx, "attack", 1,
      [&](std::size_t, obs::Observer* o) {
        return encode_outcome(attack(RunContext{o}));
      },
      [&](std::size_t, const std::string& payload) {
        outcome = decode_outcome(payload);
      });
  return outcome;
}

int finish(const Options& opt, const AttackOutcome& outcome) {
  std::cout << outcome.summary << "\n";
  if (outcome.certified && !outcome.cert_text.empty() && !opt.out.empty()) {
    std::ofstream out(opt.out);
    out << outcome.cert_text;
    std::cout << "certificate written to " << opt.out << "\n";
  }
  if (opt.expect_survive) return outcome.certified ? 1 : 0;
  return outcome.certified ? 0 : 1;
}

int attack_smm(const Options& opt, bool async_mode, const RunContext& ctx) {
  std::unique_ptr<SmmAlgorithmFactory> factory;
  if (opt.alg.rfind("too-few-steps", 0) == 0)
    factory = std::make_unique<TooFewStepsSmmFactory>(alg_param(opt.alg));
  else if (opt.alg == "half-slack")
    factory = std::make_unique<HalfSlackSmmFactory>();
  else if (opt.alg == "step-count")
    factory = std::make_unique<SemiSyncSmmFactory>(
        SmmSemiSyncStrategy::kStepCount);
  else if (opt.alg == "rounds")
    factory = std::make_unique<AsyncSmmFactory>();
  else {
    std::cerr << "unknown SM algorithm '" << opt.alg << "'\n";
    return 2;
  }

  const auto constraints =
      async_mode ? async_attack_constraints(opt.spec)
                 : TimingConstraints::semi_synchronous(opt.c1, opt.c2);
  const auto attack = [&](const RunContext& slot) {
    const SemiSyncRetimingResult result =
        async_mode
            ? attack_async_smm(opt.spec, *factory, slot)
            : attack_semisync_smm(opt.spec, constraints, *factory, 0, slot);
    AttackOutcome o;
    o.summary = result.to_string();
    if (result.certificate) {
      o.certified = true;
      o.cert_text = to_text(make_certificate(
          result, factory->name(), opt.spec,
          async_mode ? TimingConstraints::asynchronous() : constraints));
    }
    return o;
  };
  const AttackOutcome outcome = run_supervised_attack(ctx, attack);
  if (ctx.interrupted()) return 1;
  return finish(opt, outcome);
}

int attack_mpm(const Options& opt, bool semisync_mode,
               const RunContext& ctx) {
  std::unique_ptr<MpmAlgorithmFactory> factory;
  if (opt.alg.rfind("too-few-steps", 0) == 0)
    factory = std::make_unique<TooFewStepsMpmFactory>(alg_param(opt.alg));
  else if (opt.alg == "half-slack")
    factory = std::make_unique<HalfSlackMpmFactory>();
  else if (opt.alg == "asp")
    factory = std::make_unique<SporadicMpmFactory>();
  else if (opt.alg == "impatient-asp")
    factory = std::make_unique<ImpatientSporadicMpmFactory>();
  else if (opt.alg == "step-count" || opt.alg == "rounds")
    factory = std::make_unique<SemiSyncMpmFactory>(
        opt.alg == "step-count" ? SemiSyncStrategy::kStepCount
                                : SemiSyncStrategy::kCommunicate);
  else {
    std::cerr << "unknown MP algorithm '" << opt.alg << "'\n";
    return 2;
  }

  const auto constraints =
      semisync_mode
          ? TimingConstraints::semi_synchronous(opt.c1, opt.c2, opt.d2)
          : TimingConstraints::sporadic(opt.c1, opt.d1, opt.d2);
  const auto attack = [&](const RunContext& slot) {
    const SporadicRetimingResult result =
        semisync_mode
            ? attack_semisync_mpm(opt.spec, constraints, *factory, slot)
            : attack_sporadic_mpm(opt.spec, constraints, *factory, slot);
    AttackOutcome o;
    o.summary = result.to_string();
    if (result.certificate) {
      o.certified = true;
      o.cert_text = to_text(
          make_certificate(result, factory->name(), opt.spec, constraints));
    }
    return o;
  };
  const AttackOutcome outcome = run_supervised_attack(ctx, attack);
  if (ctx.interrupted()) return 1;
  return finish(opt, outcome);
}

}  // namespace
}  // namespace sesp

int main(int argc, char** argv) {
  const auto opt = sesp::parse(argc, argv);
  if (!opt) {
    sesp::usage(std::cerr);
    return 2;
  }
  // Runs, retimers and verifier report into the scope's observer; outputs
  // are emitted when the scope closes.
  sesp::ObservationScope observation(opt->obs, "sesp_attack");
  sesp::RecoveryScope recovery(opt->recovery, "sesp_attack",
                               sesp::config_digest(*opt));
  if (recovery.error()) return 2;
  const sesp::RunContext ctx{observation.observer(), recovery.supervisor()};
  std::cout << "construction: " << opt->construction
            << "  target: " << opt->alg << "  instance: s=" << opt->spec.s
            << " n=" << opt->spec.n << " b=" << opt->spec.b << "\n";
  int status = 2;
  if (opt->construction == "semisync-sm")
    status = sesp::attack_smm(*opt, false, ctx);
  else if (opt->construction == "async-sm")
    status = sesp::attack_smm(*opt, true, ctx);
  else if (opt->construction == "sporadic-mp")
    status = sesp::attack_mpm(*opt, false, ctx);
  else if (opt->construction == "semisync-mp")
    status = sesp::attack_mpm(*opt, true, ctx);
  else {
    std::cerr << "unknown construction\n";
    return 2;
  }
  return recovery.finish(status);
}
