#include "conformance/witness.hpp"

#include <sstream>
#include <vector>

#include "model/trace_io.hpp"
#include "smm/smm_simulator.hpp"

namespace sesp::conformance {

namespace {

constexpr const char* kMagic = "sesp-conformance-witness v1";

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, sep)) out.push_back(field);
  return out;
}

bool set_error(std::string* error, const std::string& text) {
  if (error) *error = text;
  return false;
}

}  // namespace

std::string write_witness(const Witness& w) {
  const CaseDescriptor& c = w.descriptor;
  std::ostringstream os;
  os << kMagic << '\n';
  os << "case,"
     << (c.substrate == Substrate::kSharedMemory ? "smm" : "mpm") << ','
     << c.algorithm << ',' << c.schedule << ',' << c.spec.s << ',' << c.spec.n
     << ',' << c.spec.b << ',' << c.seed << ','
     << (c.algorithm_override.empty() ? "-" : c.algorithm_override) << '\n';
  os << "oracle," << w.oracle << '\n';
  os << to_text(c.constraints) << '\n';
  os << w.trace_text;
  return os.str();
}

std::optional<Witness> parse_witness(const std::string& text,
                                     std::string* error) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    set_error(error, "missing witness magic line");
    return std::nullopt;
  }
  Witness w;
  if (!std::getline(is, line)) {
    set_error(error, "missing case line");
    return std::nullopt;
  }
  const auto fields = split(line, ',');
  if (fields.size() != 9 || fields[0] != "case") {
    set_error(error, "malformed case line");
    return std::nullopt;
  }
  CaseDescriptor& c = w.descriptor;
  if (fields[1] == "smm")
    c.substrate = Substrate::kSharedMemory;
  else if (fields[1] == "mpm")
    c.substrate = Substrate::kMessagePassing;
  else {
    set_error(error, "bad substrate: " + fields[1]);
    return std::nullopt;
  }
  try {
    c.algorithm = std::stoi(fields[2]);
    c.schedule = std::stoi(fields[3]);
    c.spec.s = std::stoll(fields[4]);
    c.spec.n = std::stoi(fields[5]);
    c.spec.b = std::stoi(fields[6]);
    c.seed = std::stoull(fields[7]);
  } catch (...) {
    set_error(error, "bad numeric field in case line");
    return std::nullopt;
  }
  if (fields[8] != "-") c.algorithm_override = fields[8];
  if (c.spec.n < 1) {
    set_error(error, "case line needs n >= 1");
    return std::nullopt;
  }

  if (!std::getline(is, line)) {
    set_error(error, "missing oracle line");
    return std::nullopt;
  }
  const auto oracle_fields = split(line, ',');
  if (oracle_fields.size() != 2 || oracle_fields[0] != "oracle") {
    set_error(error, "malformed oracle line");
    return std::nullopt;
  }
  w.oracle = oracle_fields[1];

  if (!std::getline(is, line)) {
    set_error(error, "missing constraints line");
    return std::nullopt;
  }
  std::string kerr;
  const auto constraints = constraints_from_text(line, &kerr);
  if (!constraints) {
    set_error(error, "bad constraints: " + kerr);
    return std::nullopt;
  }
  // The schedulers trust their constraints, so anything a run could not
  // be scheduled under is refused here rather than at run time.
  if (const auto invalid = constraints->validate()) {
    set_error(error, "bad constraints: " + *invalid);
    return std::nullopt;
  }
  const std::int32_t scheduled =
      c.substrate == Substrate::kSharedMemory
          ? smm_total_processes(c.spec.n, c.spec.b)
          : c.spec.n;
  if (constraints->model == TimingModel::kPeriodic &&
      constraints->periods.size() < static_cast<std::size_t>(scheduled)) {
    set_error(error, "bad constraints: " +
                         std::to_string(constraints->periods.size()) +
                         " periods for " + std::to_string(scheduled) +
                         " scheduled processes");
    return std::nullopt;
  }
  c.constraints = *constraints;
  c.model = constraints->model;

  std::ostringstream rest;
  while (std::getline(is, line)) rest << line << '\n';
  w.trace_text = rest.str();
  if (w.trace_text.empty()) {
    set_error(error, "missing embedded trace");
    return std::nullopt;
  }
  // Validate the embedded trace parses at all, so --replay errors are
  // attributed to the right layer.
  std::string terr;
  if (!trace_from_text(w.trace_text, &terr)) {
    set_error(error, "bad embedded trace: " + terr);
    return std::nullopt;
  }
  return w;
}

WitnessReplay replay_witness(const Witness& w, const OracleOptions& options,
                             const RunContext& ctx) {
  WitnessReplay out;
  const RunContext resolved = ctx.resolve();
  const CaseResult result = check_case(w.descriptor, options, resolved);
  out.oracle = result.first_oracle();
  if (result.ok()) {
    out.detail = "case no longer fails";
    return out;
  }
  if (out.oracle != w.oracle) {
    out.detail = "different oracle fired: " + out.oracle + " (recorded " +
                 w.oracle + "): " + result.failures[0].detail;
    return out;
  }
  // The regenerated computation must be the recorded one, byte for byte.
  GeneratedRun run = run_case(w.descriptor, resolved.observer);
  if (run.trace && to_text(*run.trace) != w.trace_text) {
    out.detail = "regenerated trace differs from the recorded witness trace";
    return out;
  }
  out.reproduced = true;
  out.detail = result.failures[0].detail;
  return out;
}

}  // namespace sesp::conformance
