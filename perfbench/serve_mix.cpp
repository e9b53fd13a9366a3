// serve-mix: open-loop traffic against an in-process serve::Server over
// localhost TCP. Requests are sent on a precomputed schedule from at most
// four connections, one generator thread each, and every request is timed
// from when it was due, so a stall also charges the requests queued behind
// it. The mix is mostly `bound` over a key space larger than the server's
// 1024-entry LRU (hits and misses), plus `run` lockstep/random requests
// with distinct seeds and a small share of duplicates (coalescing),
// `run adversary=worst` (the exclusive executor), and journaled `sweep`
// requests each followed by a `poll` of its ticket.
//
// Phases: a rate search finds qps_at_slo, the highest offered rate whose
// p99 latency meets kSloP99Ms with every reply Ok;
// then the fixed kLowRate and kHighRate phases give the latency
// percentiles. Correctness: every reply of a fixed-rate phase is Ok, bound
// replies are byte-identical per key, run and worst replies match an
// in-process run of the same request, sweep and poll replies carry the
// ticket of the request digest. Search probes past capacity may be shed
// (Overloaded); that only fails the probe, but any Ok reply they get is
// checked like the rest.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "common.hpp"
#include "exec/thread_pool.hpp"
#include "obs/observer.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/experiment.hpp"
#include "util/digest.hpp"

namespace perfbench {
namespace {

using namespace sesp;

// Frozen at about 1/4 and 3/4 of the qps_at_slo measured on the reference
// host (README.md); absolute, so that runs on one host compare.
constexpr double kLowRate = 2'500;
constexpr double kHighRate = 8'000;
constexpr double kSloP99Ms = 20;
// A window of a fixed-rate phase whose generator sends later than this at
// p99 is not a measurement of the server (latency is timed from the due
// time, so a lagging probe already reads as late).
constexpr double kMaxLagP99Ms = 20;
constexpr int kSearches = 3;
// The high-rate measurement is offered in chunks, one before each search
// and one after the last, five windows each. Its percentiles are the
// kHighWindowQ quantile over the windows: on a shared host, stalls from
// other tenants can reach most windows of a run, and the quietest windows
// measure the server. A change to the server's own latency moves every
// window.
constexpr int kHighChunks = kSearches + 1;
constexpr double kHighWindowQ = 0.1;
constexpr std::uint64_t kRunSeeds = 1024;

enum class Kind : std::uint8_t { kBound, kRun, kWorst, kSweep, kPoll };
constexpr const char* kKindNames[] = {"bound", "run", "worst", "sweep",
                                      "poll"};

constexpr const char* kModelSides[][2] = {
    {"sync", "mp"},     {"sync", "sm"},     {"periodic", "mp"},
    {"periodic", "sm"}, {"semisync", "mp"}, {"semisync", "sm"},
    {"sporadic", "mp"}, {"async", "mp"},    {"async", "sm"}};
constexpr std::uint32_t kBoundKeys = 9 * 16 * 16;  // > the 1024-entry LRU

// The request mix, in draws per 10000 (each sweep also adds one poll). The
// shares are this benchmark's own choice; README.md gives the reason for
// each.
constexpr std::uint64_t kBoundPer10k = 8800;
constexpr std::uint64_t kRunPer10k = 1188;
constexpr std::uint64_t kWorstPer10k = 10;
constexpr std::uint64_t kSweepPer10k = 2;
static_assert(kBoundPer10k + kRunPer10k + kWorstPer10k + kSweepPer10k ==
              10000);
// A sweep's poll is sent this many requests after the sweep.
constexpr std::size_t kPollAfter = 400;

// One planned request. The request line is rendered from these fields and
// the request's position in the sequence (its id).
struct Planned {
  Kind kind = Kind::kBound;
  bool smm = false;       // run: substrate
  bool lockstep = false;  // run: adversary
  std::uint32_t key = 0;  // bound: key index; poll: index of its sweep
  std::uint64_t seed = 0;  // run / worst / sweep
};

std::string render_line(const std::vector<Planned>& sequence,
                        std::size_t index) {
  const Planned& p = sequence[index];
  const std::string id = std::to_string(index + 1);
  switch (p.kind) {
    case Kind::kBound: {
      const auto& ms = kModelSides[p.key % 9];
      return "{\"id\":" + id + ",\"op\":\"bound\",\"model\":\"" + ms[0] +
             "\",\"side\":\"" + ms[1] +
             "\",\"s\":" + std::to_string(2 + (p.key / 9) % 16) +
             ",\"n\":" + std::to_string(2 + (p.key / 144) % 16) + "}";
    }
    case Kind::kRun:
      return "{\"id\":" + id + ",\"op\":\"run\",\"substrate\":\"" +
             (p.smm ? "smm" : "mpm") +
             "\",\"model\":\"semisync\",\"adversary\":\"" +
             (p.lockstep ? "lockstep" : "random") +
             "\",\"s\":24,\"n\":12,\"seed\":" + std::to_string(p.seed) + "}";
    case Kind::kWorst:
      return "{\"id\":" + id +
             ",\"op\":\"run\",\"substrate\":\"mpm\",\"model\":\"semisync\","
             "\"adversary\":\"worst\",\"s\":4,\"n\":4,\"seed\":" +
             std::to_string(p.seed) + "}";
    case Kind::kSweep:
      return "{\"id\":" + id +
             ",\"op\":\"sweep\",\"substrate\":\"mpm\",\"model\":"
             "\"semisync\",\"seed\":" +
             std::to_string(p.seed) + "}";
    case Kind::kPoll:
      return "{\"id\":" + id + ",\"op\":\"poll\",\"ticket\":\"" +
             util::fnv1a_hex(p.seed) + "\"}";
  }
  return "";
}

// The whole request sequence, drawn from the seed before any timing.
// Phases consume consecutive slices of it.
std::vector<Planned> make_sequence(std::size_t count, std::uint64_t seed) {
  std::vector<Planned> out;
  out.reserve(count);
  std::vector<std::pair<std::size_t, std::uint32_t>> pending_polls;
  std::uint64_t state = mix64(seed ^ 0x5e7e);
  // Run seeds cycle through kRunSeeds values: distinct within any window
  // of that many runs, and few enough to verify each once in-process.
  const std::uint64_t run_seed_base = 1 + (mix64(seed) % 1'000'000) * 10'000;
  std::uint64_t runs_drawn = 0;
  std::uint64_t last_run_seed = run_seed_base;
  std::uint64_t next_sweep_seed = 1 + (mix64(seed + 1) % 1'000'000) * 1000;
  const serve::ProtocolLimits limits;
  for (std::size_t i = 0; i < count; ++i) {
    Planned p;
    if (!pending_polls.empty() && pending_polls.front().first <= i) {
      p.kind = Kind::kPoll;
      p.key = pending_polls.front().second;
      p.seed = out[p.key].seed;  // replaced by the ticket digest below
      pending_polls.erase(pending_polls.begin());
    } else {
      state = mix64(state);
      const std::uint64_t draw = state % 10000;
      const std::uint64_t detail = mix64(state + 7);
      if (draw < kBoundPer10k) {
        p.kind = Kind::kBound;
        p.key = static_cast<std::uint32_t>(detail % kBoundKeys);
      } else if (draw < kBoundPer10k + kRunPer10k) {
        p.kind = Kind::kRun;
        const std::uint64_t variant = detail % 10;
        // Six runs in ten are mpm, four smm; one of each is lockstep.
        p.smm = variant >= 6;
        p.lockstep = variant == 0 || variant == 6;
        // Two runs in ten repeat the previous seed: identical requests in
        // flight on different connections coalesce.
        p.seed = variant == 5 || variant == 9
                     ? last_run_seed
                     : run_seed_base + runs_drawn++ % kRunSeeds;
        last_run_seed = p.seed;
      } else if (draw < kBoundPer10k + kRunPer10k + kWorstPer10k) {
        p.kind = Kind::kWorst;
        p.seed = 1 + detail % 16;
      } else {
        p.kind = Kind::kSweep;
        p.seed = next_sweep_seed++;
        pending_polls.emplace_back(i + kPollAfter,
                                   static_cast<std::uint32_t>(i));
      }
    }
    out.push_back(p);
  }
  // A poll carries the ticket of its sweep: the request digest.
  for (std::size_t i = 0; i < count; ++i) {
    if (out[i].kind != Kind::kPoll) continue;
    serve::Request r;
    std::string error;
    serve::parse_request(render_line(out, out[i].key), limits, &r, &error);
    out[i].seed = serve::request_digest(r);
  }
  return out;
}

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) {
      int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t k =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return false;
      off += static_cast<std::size_t>(k);
    }
    return true;
  }

  // Appends complete reply lines to *lines; false on EOF or error.
  bool read_available(std::vector<std::string>* lines) {
    char chunk[65536];
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (k == 0) return false;
    if (k < 0) return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
    buffer_.append(chunk, static_cast<std::size_t>(k));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer_.find('\n', start);
      if (nl == std::string::npos) break;
      lines->push_back(buffer_.substr(start, nl - start));
      start = nl + 1;
    }
    buffer_.erase(0, start);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool reply_ok(std::string_view reply) {
  return reply.find("\"status\":\"Ok\"") != std::string_view::npos;
}

struct Sent {
  std::size_t index = 0;   // into the sequence
  double due_ms = 0;       // since phase start
  double lag_ms = 0;       // send - due
  double latency_ms = -1;  // reply - due; -1 = no reply
  bool ok = false;         // status Ok
  std::uint64_t body_hash = 0;  // reply bytes after the id
  std::string reply;       // kept for every kind but bound
};

struct Phase {
  double rate = 0;
  bool probe = false;
  std::vector<Sent> sent;
  std::int64_t start_ns = 0;
};

// Offers `count` requests from sequence[first..] at `rate` over the
// connections (request i goes to connection i mod k) and waits for every
// reply, up to a drain limit. With `traced`, the generator threads record
// each request's span (due -> reply) into `store` as its reply arrives,
// under a "serve.phase" span; the phase then starts at that span's start.
Phase run_phase(std::vector<std::unique_ptr<Connection>>& conns,
                const std::vector<Planned>& sequence, std::size_t first,
                std::size_t count, double rate, SpanStore& store,
                bool traced) {
  Phase phase;
  phase.rate = rate;
  phase.sent.resize(count);
  const std::size_t k = conns.size();
  const double period_ms = 1e3 / rate;
  const std::int64_t phase_span =
      traced ? store.open("serve.phase", -1, -1) : -1;
  const std::int64_t opened_ns = store.now_ns();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto give_up =
      t0 + std::chrono::seconds(30) +
      std::chrono::milliseconds(
          static_cast<std::int64_t>(period_ms * static_cast<double>(count)));
  const std::int64_t t0_ns = store.to_ns(t0);
  phase.start_ns = traced ? opened_ns : t0_ns;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < k; ++c) {
    threads.emplace_back([&, c] {
      Connection& conn = *conns[c];
      std::vector<std::size_t> mine;
      for (std::size_t i = c; i < count; i += k) mine.push_back(i);
      std::size_t next = 0, answered = 0;
      std::vector<std::string> lines;
      bool open = true;
      while (open && answered < mine.size() && Clock::now() < give_up) {
        // Send what is due, at most a burst at a time so that replies keep
        // being read while the generator catches up.
        double now_ms = seconds_between(t0, Clock::now()) * 1e3;
        for (int burst = 0; burst < 64 && next < mine.size(); ++burst) {
          const double due = period_ms * static_cast<double>(mine[next]);
          if (now_ms < due) break;
          Sent& s = phase.sent[mine[next]];
          s.index = first + mine[next];
          s.due_ms = due;
          s.lag_ms = now_ms - due;
          if (!conn.send_line(render_line(sequence, s.index))) {
            open = false;
            break;
          }
          ++next;
          now_ms = seconds_between(t0, Clock::now()) * 1e3;
        }
        const double wait_ms =
            next < mine.size()
                ? std::max(0.0, period_ms * static_cast<double>(mine[next]) -
                                    now_ms)
                : 50.0;
        pollfd p{conn.fd(), POLLIN, 0};
        const timespec ts{static_cast<time_t>(wait_ms / 1e3),
                          static_cast<long>(std::fmod(wait_ms, 1e3) * 1e6)};
        if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
        lines.clear();
        if (!conn.read_available(&lines)) break;
        const auto at = Clock::now();
        const double at_ms = seconds_between(t0, at) * 1e3;
        for (std::string& line : lines) {
          if (answered >= next) break;  // a reply nobody asked for
          Sent& s = phase.sent[mine[answered++]];
          s.latency_ms = at_ms - s.due_ms;
          if (traced) {
            const Kind kind = sequence[s.index].kind;
            store.add(std::string("serve.") +
                          kKindNames[static_cast<int>(kind)],
                      t0_ns + static_cast<std::int64_t>(s.due_ms * 1e6),
                      store.to_ns(at), phase_span,
                      static_cast<std::int64_t>(s.index + 1));
          }
          s.ok = reply_ok(line);
          const std::size_t rest = line.find(",\"status\"");
          s.body_hash = std::hash<std::string_view>{}(
              std::string_view(line).substr(std::min(rest, line.size())));
          if (sequence[s.index].kind != Kind::kBound) s.reply = std::move(line);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (traced) store.close(phase_span);
  return phase;
}

struct PhaseStats {
  double p50 = 0, p90 = 0, p99 = 0, lag_p99 = 0;
  std::vector<double> window_p90, window_p99;
  std::int64_t failed = 0, beyond_p99 = 0;
  std::size_t windows = 0, lagging_windows = 0;
};

// Failed or unanswered requests count as missing every latency limit.
// The phase is cut into `windows` consecutive windows of equal request
// count; each percentile is the `window_q` quantile of the windows'
// percentiles. With the median, one transient stall of the host moves one
// window, not the whole phase. A window whose generator sent later than
// `max_lag_ms` at p99 is not a measurement of the server and is left out.
PhaseStats stats_of(const Phase& phase, std::size_t windows = 5,
                    double window_q = 0.5, double max_lag_ms = 1e12) {
  PhaseStats st;
  std::vector<double> latency, lag;
  for (const Sent& s : phase.sent) {
    lag.push_back(s.lag_ms);
    if (s.latency_ms < 0 || !s.ok) {
      ++st.failed;
      latency.push_back(1e12);
    } else {
      latency.push_back(s.latency_ms);
    }
  }
  std::vector<double> p50, p90, p99;
  const std::size_t per = std::max<std::size_t>(1, latency.size() / windows);
  for (std::size_t w = 0; w + per <= latency.size(); w += per) {
    ++st.windows;
    if (percentile(std::vector<double>(lag.begin() + w, lag.begin() + w + per),
                   0.99) > max_lag_ms) {
      ++st.lagging_windows;
      continue;
    }
    const std::vector<double> window(latency.begin() + w,
                                     latency.begin() + w + per);
    p50.push_back(percentile(window, 0.50));
    p90.push_back(percentile(window, 0.90));
    p99.push_back(percentile(window, 0.99));
    st.beyond_p99 += beyond(window, 0.99);
  }
  st.window_p90 = p90;
  st.window_p99 = p99;
  st.p50 = percentile(p50, window_q);
  st.p90 = percentile(p90, window_q);
  st.p99 = percentile(p99, window_q);
  st.lag_p99 = percentile(lag, 0.99);
  return st;
}

std::string field(const std::string& reply, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = reply.find(key);
  if (at == std::string::npos) return "";
  const std::size_t start = at + key.size();
  if (start < reply.size() && reply[start] == '"') {
    const std::size_t end = reply.find('"', start + 1);
    return end == std::string::npos
               ? ""
               : reply.substr(start + 1, end - start - 1);
  }
  std::size_t end = start;
  while (end < reply.size() && reply[end] != ',' && reply[end] != '}') ++end;
  return reply.substr(start, end - start);
}

// What an in-process run of the same request yields.
struct Expected {
  std::string sessions, termination;  // run
  std::string max_time;               // worst
  std::int64_t steps = 0, runs = 0;
};

Expected expected_for(const Planned& p) {
  // The request's instance (run: s=24 n=12, worst: s=4 n=4, b=2), the
  // sesp-serve/1 timing defaults (c1=1 c2=2 d1=0 d2=4) and the adversaries
  // the server builds for model=semisync.
  const ProblemSpec spec = p.kind == Kind::kWorst ? ProblemSpec{4, 4, 2}
                                                  : ProblemSpec{24, 12, 2};
  const Duration c1(1), c2(2), d1(0), d2(4);
  const auto constraints = TimingConstraints::semi_synchronous(c1, c2, d2);
  obs::MetricsRegistry registry;
  obs::Observer observer(&registry);
  Expected e;
  if (p.kind == Kind::kWorst) {
    // The worst-case family observes through the default observer.
    obs::Observer* saved = obs::set_default_observer(&observer);
    SemiSyncMpmFactory factory;
    const WorstCase wc = mpm_worst_case(spec, constraints, factory, 4, p.seed);
    obs::set_default_observer(saved);
    e.max_time = wc.max_termination.to_string();
    e.runs = wc.runs;
  } else {
    Verdict verdict;
    if (!p.smm) {
      SemiSyncMpmFactory factory;
      std::unique_ptr<StepScheduler> sched;
      std::unique_ptr<DelayStrategy> delay;
      if (p.lockstep) {
        sched = std::make_unique<FixedPeriodScheduler>(spec.n, c2);
        delay = std::make_unique<FixedDelay>(d2);
      } else {
        sched = std::make_unique<UniformGapScheduler>(c1, c2, p.seed);
        delay = std::make_unique<UniformRandomDelay>(d1, d2, p.seed + 1);
      }
      verdict = run_mpm_once(spec, constraints, factory, *sched, *delay,
                             MpmRunLimits{}, nullptr, &observer)
                    .verdict;
    } else {
      SemiSyncSmmFactory factory;
      std::unique_ptr<StepScheduler> sched;
      if (p.lockstep) {
        sched = std::make_unique<FixedPeriodScheduler>(
            smm_total_processes(spec.n, spec.b), c2);
      } else {
        sched = std::make_unique<UniformGapScheduler>(c1, c2, p.seed);
      }
      verdict = run_smm_once(spec, constraints, factory, *sched,
                             SmmRunLimits{}, nullptr, &observer)
                    .verdict;
    }
    e.sessions = std::to_string(verdict.sessions);
    if (verdict.termination_time)
      e.termination = verdict.termination_time->to_string();
    e.runs = 1;
  }
  e.steps = counter(registry, "sim.steps");
  return e;
}

std::uint64_t expected_key(const Planned& p) {
  return (p.seed << 3) | (p.kind == Kind::kWorst ? 4 : 0) |
         (p.smm ? 2 : 0) | (p.lockstep ? 1 : 0);
}

struct Verifier {
  std::map<std::uint64_t, Expected> expected;          // by expected_key
  std::map<std::uint32_t, std::uint64_t> bound_bytes;  // key -> body hash

  // Computes the in-process expectation of every run/worst request sent.
  void prepare(const std::vector<Planned>& sequence,
               const std::vector<const Phase*>& phases, int jobs) {
    std::vector<const Planned*> todo;
    for (const Phase* ph : phases)
      for (const Sent& s : ph->sent) {
        const Planned& p = sequence[s.index];
        if ((p.kind == Kind::kRun || p.kind == Kind::kWorst) &&
            expected.emplace(expected_key(p), Expected{}).second)
          todo.push_back(&p);
      }
    std::vector<Expected> results(todo.size());
    exec::parallel_for_each(
        todo.size(),
        [&](std::size_t i) { results[i] = expected_for(*todo[i]); }, jobs);
    for (std::size_t i = 0; i < todo.size(); ++i)
      expected[expected_key(*todo[i])] = results[i];
  }

  // Empty when the Ok reply is correct, else why not.
  std::string check(const std::vector<Planned>& sequence, const Sent& s) {
    const Planned& p = sequence[s.index];
    if (p.kind == Kind::kBound) {
      const auto [it, fresh] = bound_bytes.emplace(p.key, s.body_hash);
      return !fresh && it->second != s.body_hash ? "bound reply bytes differ"
                                                 : "";
    }
    if (field(s.reply, "id") != std::to_string(s.index + 1))
      return "reply id " + field(s.reply, "id");
    switch (p.kind) {
      case Kind::kRun: {
        const Expected& e = expected[expected_key(p)];
        if (field(s.reply, "sessions") != e.sessions ||
            field(s.reply, "termination") != e.termination ||
            field(s.reply, "solves") != "true" ||
            field(s.reply, "admissible") != "true")
          return "run reply differs from the in-process run";
        return "";
      }
      case Kind::kWorst: {
        const Expected& e = expected[expected_key(p)];
        if (field(s.reply, "max_time") != e.max_time ||
            field(s.reply, "all_solved") != "true")
          return "worst reply differs from the in-process sweep";
        return "";
      }
      case Kind::kSweep: {
        serve::Request r;
        std::string error;
        serve::parse_request(render_line(sequence, s.index),
                             serve::ProtocolLimits{}, &r, &error);
        return field(s.reply, "ticket") ==
                       util::fnv1a_hex(serve::request_digest(r))
                   ? ""
                   : "sweep ticket is not the request digest";
      }
      case Kind::kPoll:
        return field(s.reply, "ticket") == util::fnv1a_hex(p.seed)
                   ? ""
                   : "poll ticket mismatch";
      case Kind::kBound:
        break;
    }
    return "";
  }
};

serve::ServerConfig server_config(const std::string& journal_dir) {
  serve::ServerConfig config;
  // Open-loop load from four connections would otherwise measure the
  // per-connection token bucket instead of the server.
  config.admission.rate_per_sec = 1e9;
  config.admission.burst = 1e9;
  config.journal_dir = journal_dir;
  return config;
}

}  // namespace

WorkloadResult run_serve_mix(const Options& options) {
  WorkloadResult result;
  // Journals live in the checkout; the benchmark measures compute and the
  // protocol, not disk flushes.
  ::setenv("SESP_JOURNAL_FSYNC", "0", 0);
  const std::string journal_dir = std::string(kOutDir) + "/serve-journal-" +
                                  std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);
  std::filesystem::create_directories(journal_dir);

  const std::size_t connections =
      static_cast<std::size_t>(std::min(options.jobs, 4));
  const double scale = options.tiny ? 0.02 : 1.0;
  const double budget = options.seconds;
  const std::vector<Planned> sequence = make_sequence(
      static_cast<std::size_t>(kHighRate * scale * budget) + 1000,
      options.seed);

  // setup_s: server construction and start until the first health reply.
  SetupTimes setup([&] {
    serve::Server server(server_config(journal_dir));
    std::string error;
    if (!server.start(&error)) {
      result.fail("server start: " + error);
      return;
    }
    Connection conn(server.port());
    std::vector<std::string> lines;
    if (conn.ok() && conn.send_line("{\"id\":1,\"op\":\"health\"}")) {
      while (lines.empty()) {
        pollfd p{conn.fd(), POLLIN, 0};
        if (::poll(&p, 1, 5000) <= 0 || !conn.read_available(&lines)) break;
      }
    }
    if (lines.empty() || !reply_ok(lines[0])) result.fail("no health reply");
  });
  for (int i = 0; i < 15; ++i) setup();

  obs::MetricsRegistry registry;
  obs::Observer metrics_only(&registry);
  obs::Observer* const saved = obs::set_default_observer(&metrics_only);
  serve::Server server(server_config(journal_dir));
  std::string error;
  if (!server.start(&error)) {
    result.fail("server start: " + error);
    obs::set_default_observer(saved);
    return result;
  }
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Connection>(server.port()));
    if (!conns.back()->ok()) result.fail("connect failed");
  }

  SpanStore store;
  std::size_t cursor = 0;
  std::vector<std::unique_ptr<Phase>> phases;
  const auto offer = [&](double rate, double seconds, bool probe,
                         bool traced = false) -> const Phase& {
    const auto count = static_cast<std::size_t>(std::max(
        1.0, std::min(rate * seconds, static_cast<double>(sequence.size()))));
    if (cursor + count > sequence.size()) cursor = 0;
    phases.push_back(std::make_unique<Phase>(
        run_phase(conns, sequence, cursor, count, rate, store, traced)));
    phases.back()->probe = probe;
    cursor += count;
    return *phases.back();
  };
  std::ostringstream report;
  // A probe's p99 against the SLO; a failed reply reads as infinitely
  // late, and a backlog shows as latency from the due time.
  const auto probe_p99 = [&](const Phase& ph) {
    const PhaseStats st = stats_of(ph);
    report << "search " << ph.rate << " req/s: " << ph.sent.size()
           << " requests, p99 " << st.p99 << " ms, not Ok " << st.failed
           << ", lag p99 " << st.lag_p99 << " ms\n";
    return st.failed == 0 ? st.p99 : 1e12;
  };

  Phase high;  // the high-rate chunks' requests, in order
  high.rate = kHighRate * scale;
  const auto high_chunk = [&] {
    const Phase& chunk =
        offer(kHighRate * scale, 0.4 * budget / kHighChunks, false);
    high.sent.insert(high.sent.end(), chunk.sent.begin(), chunk.sent.end());
  };
  // Rate search: geometric growth until the SLO breaks, bisection, then
  // linear interpolation of p99 between the last passing and the first
  // failing rate. qps_at_slo is the median of kSearches searches. Every
  // probe offers at least 1000 requests, so its p99 has ten samples beyond
  // it.
  double qps_at_slo = 0;
  std::vector<double> found;
  const auto probe = [&](double rate) {
    return probe_p99(
        offer(rate * scale, std::max(0.015 * budget, 1000.0 / rate), true));
  };
  for (int chunk = 0; chunk < kHighChunks; ++chunk) {
    high_chunk();
    if (!options.trace && chunk < kSearches) {
      double lo = 0, hi = 0, lo_p99 = 0, hi_p99 = 0, rate = kHighRate;
      const auto step = [&](double r) {
        const double p99 = probe(r);
        if (p99 <= kSloP99Ms) {
          lo = r;
          lo_p99 = p99;
        } else {
          hi = r;
          hi_p99 = p99;
        }
      };
      for (int i = 0; i < (options.tiny ? 2 : 24) && hi == 0; ++i) {
        step(rate);
        rate *= 1.4;
      }
      for (int i = 0; i < 3 && hi > 0; ++i)
        step(std::sqrt(std::max(lo, hi / 2) * hi));
      double at = lo;
      if (hi > 0 && lo > 0)
        at += (hi - lo) * (kSloP99Ms - lo_p99) / (hi_p99 - lo_p99);
      found.push_back(at * scale);
    }
  }
  if (!found.empty()) qps_at_slo = median(found);

  const Phase& low = offer(kLowRate * scale, 0.05 * budget, false);
  const Phase* traced =
      options.trace ? &offer(kHighRate * scale, 0.2 * budget, false, true)
                    : nullptr;

  conns.clear();
  server.request_drain();
  server.stop();
  obs::set_default_observer(saved);
  const serve::CacheStats cache = server.cache_stats();
  const serve::ServeCounters& counters = server.counters();

  std::vector<const Phase*> all;
  for (const auto& ph : phases) all.push_back(ph.get());
  Verifier verifier;
  const auto t_prepare = Clock::now();
  verifier.prepare(sequence, all, options.jobs);
  report << "in-process expectations computed in "
         << seconds_between(t_prepare, Clock::now()) << " s\n";
  std::int64_t probe_shed = 0;
  for (const Phase* ph : all) {
    for (const Sent& s : ph->sent) {
      const Planned& p = sequence[s.index];
      if (ph->probe && !s.ok) {
        ++probe_shed;
        continue;
      }
      ++result.attempted;
      std::string why = s.latency_ms < 0 ? "no reply"
                        : !s.ok ? "status " + field(s.reply, "status")
                                : verifier.check(sequence, s);
      if (options.plant_wrong_expectation && result.attempted == 1)
        why = "planted wrong expectation";
      if (!why.empty())
        result.fail(std::string(kKindNames[static_cast<int>(p.kind)]) +
                    " request " + std::to_string(s.index + 1) + ": " + why);
    }
  }

  const PhaseStats low_st = stats_of(low, 5, 0.5, kMaxLagP99Ms);
  const PhaseStats high_st =
      stats_of(high, 5 * kHighChunks, kHighWindowQ, kMaxLagP99Ms);
  // Too few windows left to measure the server: the run is not a
  // measurement.
  for (const PhaseStats* st : {&low_st, &high_st})
    if (4 * st->lagging_windows > 3 * st->windows)
      result.fail("generator fell behind in " +
                  std::to_string(st->lagging_windows) + " of " +
                  std::to_string(st->windows) + " windows");
  // Simulated steps and runs per request of the mix (the high phase's
  // requests), from the in-process expectations.
  double steps_per_request = 0, runs_per_request = 0;
  for (const Sent& s : high.sent) {
    const Planned& p = sequence[s.index];
    if (p.kind == Kind::kRun || p.kind == Kind::kWorst) {
      const Expected& e = verifier.expected[expected_key(p)];
      steps_per_request += static_cast<double>(e.steps);
      runs_per_request += static_cast<double>(e.runs);
    }
  }
  const auto high_count =
      static_cast<double>(std::max<std::size_t>(1, high.sent.size()));
  steps_per_request /= high_count;
  runs_per_request /= high_count;
  report << "low  " << low.rate << " req/s: " << low.sent.size()
         << " requests, p50 " << low_st.p50 << " ms, p99 " << low_st.p99
         << " ms (" << low_st.beyond_p99 << " beyond), lag p99 "
         << low_st.lag_p99 << " ms\n"
         << "high " << high.rate << " req/s: " << high.sent.size()
         << " requests, p50 " << high_st.p50 << " ms, p90 " << high_st.p90
         << " ms, p99 " << high_st.p99 << " ms (" << high_st.beyond_p99
         << " beyond), lag p99 " << high_st.lag_p99 << " ms, "
         << high_st.lagging_windows << " of " << high_st.windows
         << " windows left out for lag\n"
         << "high windows p90/p99 ms:";
  for (std::size_t w = 0; w < high_st.window_p99.size(); ++w)
    report << " " << high_st.window_p90[w] << "/" << high_st.window_p99[w];
  report << "\nprobe requests shed: " << probe_shed << "; cache hits "
         << cache.hits << ", misses " << cache.misses << "; coalesced "
         << counters.coalesced.load() << "\n";
  result.report += report.str();
  std::filesystem::remove_all(journal_dir);

  if (!options.trace) {
    auto& m = result.end_to_end;
    m["setup_s"] = {median(setup.seconds), "s"};
    // Served work per second at the highest rate that meets the SLO.
    m["units_per_s"] = {qps_at_slo, "1/s"};
    m["steps_per_s"] = {qps_at_slo * steps_per_request, "1/s"};
    m["runs_per_s"] = {qps_at_slo * runs_per_request, "1/s"};
    m["unit_ms_p50"] = {high_st.p50, "ms"};
    m["unit_ms_p90"] = {high_st.p90, "ms"};
    m["unit_ms_p99"] = {high_st.p99, "ms"};
    return result;
  }

  // Traced run: the traced high phase recorded one span per request (due
  // -> reply) while it ran; after it, the request-line codec calls on the
  // same lines and the in-process run of each run request are spanned.
  std::map<Kind, std::vector<double>> by_kind;
  for (const Sent& s : traced->sent)
    if (s.latency_ms >= 0)
      by_kind[sequence[s.index].kind].push_back(s.latency_ms);
  double parse_ns = 0, digest_ns = 0, render_ns = 0;
  std::vector<double> exec_share;
  const serve::ProtocolLimits limits;
  for (const Sent& s : traced->sent) {
    const Planned& p = sequence[s.index];
    const auto unit = static_cast<std::int64_t>(s.index + 1);
    const std::string line = render_line(sequence, s.index);
    serve::Request r;
    std::string err;
    std::int64_t t0 = store.now_ns();
    serve::parse_request(line, limits, &r, &err);
    std::int64_t t1 = store.now_ns();
    store.add("serve.parse_request", t0, t1, -1, unit);
    parse_ns += static_cast<double>(t1 - t0);
    t0 = store.now_ns();
    serve::request_digest(r);
    t1 = store.now_ns();
    store.add("serve.request_digest", t0, t1, -1, unit);
    digest_ns += static_cast<double>(t1 - t0);
    t0 = store.now_ns();
    serve::render_request(r);
    t1 = store.now_ns();
    store.add("serve.render_request", t0, t1, -1, unit);
    render_ns += static_cast<double>(t1 - t0);
    if (p.kind == Kind::kRun && s.latency_ms > 0) {
      t0 = store.now_ns();
      expected_for(p);
      t1 = store.now_ns();
      store.add("serve.inprocess_run", t0, t1, -1, unit);
      exec_share.push_back(static_cast<double>(t1 - t0) * 1e-6 /
                           s.latency_ms);
    }
  }
  const SelfTimeTable table =
      self_time_table(store, traced->start_ns, store.now_ns());
  finish_trace(store, table, options, result);

  double plain_mean = 0, traced_mean = 0;
  for (const Sent& s : high.sent) plain_mean += std::max(0.0, s.latency_ms);
  for (const Sent& s : traced->sent)
    traced_mean += std::max(0.0, s.latency_ms);
  plain_mean /= static_cast<double>(std::max<std::size_t>(1, high.sent.size()));
  const double lines =
      static_cast<double>(std::max<std::size_t>(1, traced->sent.size()));
  traced_mean /= lines;
  auto& m = result.per_layer;
  m["serve.lat_ms_p50.bound"] = {median(by_kind[Kind::kBound]), "ms"};
  m["serve.lat_ms_p50.run"] = {median(by_kind[Kind::kRun]), "ms"};
  m["serve.lat_ms_p50.worst"] = {median(by_kind[Kind::kWorst]), "ms"};
  m["serve.lat_ms_p50.sweep"] = {median(by_kind[Kind::kSweep]), "ms"};
  m["serve.lat_ms_p50.low"] = {low_st.p50, "ms"};
  m["serve.lat_ms_p99.low"] = {low_st.p99, "ms"};
  m["serve.parse_ns"] = {parse_ns / lines, "ns"};
  m["serve.digest_ns"] = {digest_ns / lines, "ns"};
  m["serve.render_ns"] = {render_ns / lines, "ns"};
  m["serve.cache_hit_ratio"] = {
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0,
      "ratio"};
  m["serve.overloaded"] = {static_cast<double>(counters.overloaded.load()),
                           "count"};
  m["serve.timeout"] = {static_cast<double>(counters.timeout.load()), "count"};
  m["serve.rate_limited"] = {
      static_cast<double>(counters.rate_limited.load()), "count"};
  m["serve.coalesced"] = {static_cast<double>(counters.coalesced.load()),
                          "count"};
  m["serve.exec_share.run"] = {median(exec_share), "ratio"};
  m["recovery.journal_appends"] = {
      static_cast<double>(counter(registry, "recovery.slots.executed")),
      "count"};
  m["gen.lag_ms_p99"] = {stats_of(*traced).lag_p99, "ms"};
  m["obs.trace_overhead"] = {
      plain_mean > 0 ? traced_mean / plain_mean - 1.0 : 0.0, "ratio"};
  m["trace.unattributed_share"] = {
      table.wall_s > 0 ? table.unattributed_s / table.wall_s : 0.0, "ratio"};
  return result;
}

}  // namespace perfbench
