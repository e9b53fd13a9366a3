#pragma once

// Wire protocol of the serve layer (docs/serving.md): sesp-serve/1, a
// line-delimited JSON request/reply protocol over localhost TCP. One
// request per line, one reply line per request, always in order:
//
//   -> {"id":1,"op":"bound","model":"semisync","substrate":"sm",
//       "s":3,"n":3,"b":2,"c1":"1","c2":"2"}
//   <- {"id":1,"status":"Ok","result":{...}}
//
// Every reply carries the request's id and one of four statuses:
//
//   Ok          the result object follows in "result"
//   BadRequest  the line was not a well-formed request ("error" explains);
//               the connection survives unless the framing itself is
//               untrustworthy (oversized line)
//   Overloaded  admission control shed the request; "retry_after_ms" tells
//               the client when to try again
//   Timeout     the request was accepted but its deadline expired before
//               the result was ready ("error" explains; for coalescable
//               work the result may land in the cache anyway)
//
// The parser is the hardened edge of the server: byte-capped lines, capped
// JSON nesting depth, capped instance sizes, and strictly typed fields —
// every violation is a structured BadRequest, never a crash or an abort
// (serve_test drives it with the obs JSON fuzz corpus).

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/run_spec.hpp"

namespace sesp::serve {

inline constexpr char kProtocolSchema[] = "sesp-serve/1";

// Hard caps the parser enforces before any interpretation. The line cap is
// checked by the connection reader as bytes arrive, so an unbounded sender
// cannot grow a buffer; the rest are checked on the parsed document.
struct ProtocolLimits {
  std::size_t max_line_bytes = 256 * 1024;  // replay traces ride in lines
  int max_depth = 16;                       // JSON nesting, caps parser work
  std::int64_t max_deadline_ms = 120'000;
  std::int64_t max_s = 64;       // instance caps: serve-side work is
  std::int32_t max_n = 64;       // bounded even before admission control
  std::int32_t max_chaos_runs = 256;
};

enum class Op : std::uint8_t {
  kBound,   // Table-1 cell (cached, byte-stable)
  kRun,     // one simulator run (pooled, coalesced)
  kReplay,  // differential replay of a recorded trace (pooled)
  kSweep,   // degradation sweep (journaled, resumable, ticketed)
  kPoll,    // sweep ticket status / report
  kHealth,  // liveness + drain state
  kStats,   // serve counters, cache stats, admission state
};

const char* op_name(Op op) noexcept;

enum class Status : std::uint8_t { kOk, kBadRequest, kOverloaded, kTimeout };

const char* status_name(Status status) noexcept;

// One parsed request. Fields beyond (id, op) are op-specific; unused ones
// keep their defaults and are excluded from the digest where irrelevant.
struct Request {
  std::int64_t id = 0;
  Op op = Op::kHealth;

  // The run, as sesp_cli builds it (run/sweep/replay: substrate mpm | smm;
  // the adversary matters to run only; bound reads model, spec and c/d).
  RunSpec run;
  std::string bound_side = "mp";  // bound: sm | mp
  std::int64_t deadline_ms = 0;   // 0 = server default

  std::string ticket;      // poll: sweep ticket (16 hex digits)
  std::string trace_text;  // replay: sesp-trace text
};

// Parses one request line. On failure returns false and fills *error with
// the BadRequest detail; *out is partially filled best-effort so the caller
// can still echo the id when it parsed (id 0 otherwise).
bool parse_request(std::string_view line, const ProtocolLimits& limits,
                   Request* out, std::string* error);

// Fingerprint of every result-affecting request field (never the id or the
// deadline): the bound-cache key, the run-coalescing key, and the sweep
// ticket. Shares the repo digest (util/digest) so tickets and journal
// guards verify across layers.
std::uint64_t request_digest(const Request& r);

// Canonical rendering of a request (fixed field order, exact rationals as
// strings): parse_request(render_request(r)) reproduces r. This is the
// journaled form of a sweep request (stage "serve.request"), what --resume
// re-parses, and what sesp_client emits.
std::string render_request(const Request& r);

// --- Reply builders (one line each, no trailing newline) -------------------

// {"id":N,"status":"Ok","result":<result_json>} — result_json must be a
// rendered JSON value; cached result bytes are spliced verbatim, which is
// what makes repeated bound replies byte-identical.
std::string ok_reply(std::int64_t id, const std::string& result_json);

// {"id":N,"status":"<status>","error":"<detail>"[,"retry_after_ms":N]}
std::string error_reply(std::int64_t id, Status status,
                        const std::string& detail,
                        std::int64_t retry_after_ms = 0);

}  // namespace sesp::serve
