#pragma once

// Witness files: a failing (usually shrunk) conformance case persisted as
// text. A witness embeds everything needed to re-judge the failure offline:
// the case descriptor (model, substrate, algorithm, schedule, spec, seed),
// the oracle that fired, the exact timing constraints, and the full
// trace_io serialization of the offending computation. `sesp_conformance
// --replay=<file>` re-runs the descriptor through the simulators and checks
// that the same oracle fires on a byte-identical trace.
//
//   sesp-conformance-witness v1
//   case,<smm|mpm>,<algorithm>,<schedule>,<s>,<n>,<b>,<seed>,<override|->
//   oracle,<name>
//   constraints,<model>,...          (trace_io constraints line)
//   sesp-trace v1                    (embedded trace_io trace)
//   ...

#include <optional>
#include <string>

#include "conformance/generator.hpp"
#include "conformance/oracles.hpp"

namespace sesp::conformance {

struct Witness {
  CaseDescriptor descriptor;
  std::string oracle;      // failure mode being witnessed
  std::string trace_text;  // trace_io serialization of the failing run
};

std::string write_witness(const Witness& w);
// nullopt, with *error set, for any text a replay could not run: a
// malformed line, n < 1, constraints that fail validate(), or a periodic
// constraints line with fewer periods than the case schedules processes.
std::optional<Witness> parse_witness(const std::string& text,
                                     std::string* error);

struct WitnessReplay {
  bool reproduced = false;  // same oracle fired on a byte-identical trace
  std::string oracle;       // oracle observed on re-run ("" = case passed)
  std::string detail;
};

// Re-executes the witness's descriptor and compares against the recorded
// failure: the case must still fail, with the same first oracle, and the
// regenerated trace must serialize byte-identically to the embedded one.
WitnessReplay replay_witness(const Witness& w, const OracleOptions& options,
                             const RunContext& ctx = {});

}  // namespace sesp::conformance
