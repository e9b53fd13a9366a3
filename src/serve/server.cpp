#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "algorithms/smm/semisync_alg.hpp"
#include "analysis/bounds.hpp"
#include "model/trace_io.hpp"
#include "obs/json.hpp"
#include "recovery/supervisor.hpp"
#include "sim/run_spec.hpp"
#include "smm/smm_simulator.hpp"

namespace sesp::serve {

namespace {

constexpr char kJournalTool[] = "sesp_serve";
constexpr char kRequestStage[] = "serve.request";
constexpr char kReportStage[] = "serve.report";

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// parse_request admits only run specs RunPlan resolves (a known model on
// mpm or smm), so this throws only on a Request built around the parser.
RunPlan resolve_plan(const RunSpec& r) {
  auto plan = RunPlan::resolve(r);
  if (!plan) throw std::invalid_argument("unresolvable run spec");
  return std::move(*plan);
}

// The leading fields of every run reply (single run and worst case).
void write_run_fields(obs::JsonWriter& w, const RunSpec& run,
                      const char* algorithm) {
  w.field("op", "run");
  w.field("substrate", run.substrate);
  w.field("model", run.model);
  w.field("adversary", run.adversary);
  w.field("algorithm", algorithm);
  w.field("s", run.spec.s);
  w.field("n", static_cast<std::int64_t>(run.spec.n));
  w.field("b", static_cast<std::int64_t>(run.spec.b));
  w.field("seed", static_cast<std::int64_t>(run.seed));
}

const char* ticket_state_name(std::uint8_t state) {
  switch (state) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "interrupted";
  }
  return "unknown";
}

// Nonblocking write with a wall-clock budget; false = slow/dead client.
bool write_with_timeout(int fd, std::string_view data,
                        std::int64_t timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t k =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto now = clock::now();
      if (now >= deadline) return false;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left, 100)));
      continue;
    }
    return false;
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Server::Server(ServerConfig config, obs::Observer* observer)
    : config_(std::move(config)),
      cache_(config_.admission.cache_capacity),
      connection_gate_(config_.admission.max_connections),
      parent_(obs::resolve(observer)),
      observer_(&metrics_, parent_ && parent_->trace ? &trace_ : nullptr) {
  observer_.profiler = &profiler_;
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error) *error = errno_text("socket");
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    if (error) *error = errno_text("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) < 0) {
    if (error) *error = errno_text("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  if (!config_.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.journal_dir, ec);
    if (config_.resume && !load_resumable_sweeps(error)) return false;
  }

  running_.store(true);
  accept_thread_ = std::thread(&Server::accept_loop, this);
  for (std::int32_t i = 0; i < config_.admission.heavy_workers; ++i)
    heavy_threads_.emplace_back(&Server::heavy_worker_loop, this);
  sweep_thread_ = std::thread(&Server::sweep_loop, this);
  return true;
}

void Server::request_drain() {
  if (draining_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    if (active_sup_ != nullptr) active_sup_->request_stop();
  }
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t k = ::write(wake_pipe_[1], &b, 1);
  }
  sweep_cv_.notify_all();
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    // A second caller still waits for the first teardown to complete by
    // joining nothing — teardown is single-owner via the exchange above.
    return;
  }
  request_drain();
  heavy_cv_.notify_all();
  sweep_cv_.notify_all();

  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<std::uint64_t, std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(connections_);
    finished_conn_ids_.clear();
  }
  for (auto& [id, t] : conns)
    if (t.joinable()) t.join();
  for (std::thread& t : heavy_threads_)
    if (t.joinable()) t.join();
  heavy_threads_.clear();
  if (sweep_thread_.joinable()) sweep_thread_.join();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  running_.store(false);

  // Fold the server-private observability into the server's observer.
  // Every worker thread is joined above, so this is the single-writer
  // moment.
  obs::Observer* const def = parent_;
  if (def == nullptr) return;
  std::lock_guard<std::mutex> lk(obs_mu_);
  if (def->metrics != nullptr) {
    def->metrics->merge_from(metrics_);
    auto put = [&](const char* name, const std::atomic<std::int64_t>& v) {
      def->metrics->counter(name).inc(v.load());
    };
    put("serve.connections.accepted", counters_.connections_accepted);
    put("serve.connections.shed", counters_.connections_shed);
    put("serve.connections.dropped", counters_.connections_dropped);
    put("serve.requests", counters_.requests);
    put("serve.ok", counters_.ok);
    put("serve.bad_request", counters_.bad_request);
    put("serve.overloaded", counters_.overloaded);
    put("serve.timeout", counters_.timeout);
    put("serve.rate_limited", counters_.rate_limited);
    put("serve.coalesced", counters_.coalesced);
    put("serve.sweeps.completed", counters_.sweeps_completed);
    put("serve.sweeps.interrupted", counters_.sweeps_interrupted);
    put("serve.sweeps.resumed", counters_.sweeps_resumed);
    const CacheStats cs = cache_.stats();
    def->metrics->counter("serve.cache.hits").inc(cs.hits);
    def->metrics->counter("serve.cache.misses").inc(cs.misses);
    def->metrics->counter("serve.cache.evictions").inc(cs.evictions);
  }
  if (def->profiler != nullptr) def->profiler->merge_from(profiler_);
  if (observer_.trace != nullptr) def->trace->merge_from(trace_);
}

bool Server::interrupted() const noexcept {
  return sweep_interrupted_.load();
}

// --- Accept / connection threads -------------------------------------------

void Server::reap_finished_connections() {
  std::vector<std::uint64_t> done;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    done.swap(finished_conn_ids_);
  }
  for (const std::uint64_t id : done) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      const auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      t = std::move(it->second);
      connections_.erase(it);
    }
    if (t.joinable()) t.join();
  }
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    // Draining closes the listener: no new connections, existing ones keep
    // getting structured replies until stop().
    if (draining_.load() && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int nfds = listen_fd_ >= 0 ? 2 : 1;
    pollfd* base = listen_fd_ >= 0 ? fds : fds + 1;
    if (::poll(base, nfds, 200) < 0 && errno != EINTR) break;
    char buf[64];
    while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
    }
    if (listen_fd_ >= 0 && (fds[0].revents & POLLIN) != 0) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd >= 0) {
        set_nonblocking(cfd);
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (!connection_gate_.try_acquire()) {
          ++counters_.connections_shed;
          write_with_timeout(
              cfd,
              error_reply(0, Status::kOverloaded, "connection limit reached",
                          config_.admission.retry_after_ms) +
                  "\n",
              config_.admission.write_timeout_ms);
          ::close(cfd);
        } else {
          ++counters_.connections_accepted;
          std::lock_guard<std::mutex> lk(conn_mu_);
          const std::uint64_t id = next_conn_id_++;
          connections_.emplace(
              id, std::thread(&Server::connection_loop, this, cfd, id));
        }
      }
    }
    reap_finished_connections();
  }
}

void Server::connection_loop(int fd, std::uint64_t conn_id) {
  using clock = std::chrono::steady_clock;
  TokenBucket bucket(config_.admission.rate_per_sec, config_.admission.burst);
  obs::Profiler profiler;
  std::string buffer;
  auto last_activity = clock::now();
  bool drop = false;
  char chunk[4096];

  while (!stopping_.load() && !drop) {
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            clock::now() - last_activity)
                            .count();
      if (idle >= config_.admission.idle_timeout_ms) break;
      continue;
    }
    const ssize_t k = ::recv(fd, chunk, sizeof chunk, 0);
    if (k == 0) break;
    if (k < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    last_activity = clock::now();
    buffer.append(chunk, static_cast<std::size_t>(k));

    std::size_t nl;
    while (!drop && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string reply = handle_line(line, bucket, &profiler) + "\n";
      if (!write_with_timeout(fd, reply, config_.admission.write_timeout_ms)) {
        ++counters_.connections_dropped;
        drop = true;
      }
    }
    // A partial line past the cap can never become a valid request; the
    // framing is untrustworthy, so reply once and cut the connection.
    if (!drop && buffer.size() > config_.limits.max_line_bytes) {
      ++counters_.requests;
      ++counters_.bad_request;
      ++counters_.connections_dropped;
      write_with_timeout(
          fd,
          error_reply(0, Status::kBadRequest,
                      "request line exceeds " +
                          std::to_string(config_.limits.max_line_bytes) +
                          " bytes") +
              "\n",
          config_.admission.write_timeout_ms);
      drop = true;
    }
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lk(obs_mu_);
    profiler_.merge_from(profiler);
  }
  connection_gate_.release();
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    finished_conn_ids_.push_back(conn_id);
  }
}

// --- Request path ----------------------------------------------------------

std::string Server::handle_line(const std::string& line, TokenBucket& bucket,
                                obs::Profiler* profiler) {
  obs::ProfileScope scope(profiler, obs::ProfilePhase::kServeRequest);
  ++counters_.requests;
  Request r;
  std::string err;
  if (!parse_request(line, config_.limits, &r, &err)) {
    ++counters_.bad_request;
    return error_reply(r.id, Status::kBadRequest, err);
  }
  const auto now = TokenBucket::clock::now();
  if (!bucket.admit(now)) {
    ++counters_.rate_limited;
    ++counters_.overloaded;
    return error_reply(r.id, Status::kOverloaded, "rate limited",
                       bucket.retry_after_ms(now));
  }
  return dispatch(r, profiler);
}

std::string Server::dispatch(const Request& r, obs::Profiler* profiler) {
  (void)profiler;
  if (r.op == Op::kHealth) return handle_health(r);
  if (r.op == Op::kStats) {
    ++counters_.ok;
    return ok_reply(r.id, stats_json());
  }
  if (r.op == Op::kPoll) return handle_poll(r);
  if (draining_.load()) {
    ++counters_.overloaded;
    return error_reply(r.id, Status::kOverloaded, "draining",
                       config_.admission.retry_after_ms);
  }
  switch (r.op) {
    case Op::kBound:
      // Runs on the connection thread, so nothing may escape: closed forms
      // over coprime denominators near 1e6 leave int64 (ArithmeticOverflow).
      try {
        return handle_bound(r);
      } catch (const std::exception& e) {
        ++counters_.bad_request;
        return error_reply(r.id, Status::kBadRequest,
                           std::string("bound failed: ") + e.what());
      }
    case Op::kRun:
    case Op::kReplay: return submit_heavy(r);
    case Op::kSweep: return submit_sweep(r);
    default: break;
  }
  ++counters_.bad_request;
  return error_reply(r.id, Status::kBadRequest, "unhandled op");
}

std::string Server::handle_health(const Request& r) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", kProtocolSchema);
  w.field("state", draining_.load() ? "draining" : "ok");
  w.end_object();
  ++counters_.ok;
  return ok_reply(r.id, os.str());
}

std::string Server::handle_bound(const Request& r) {
  const std::uint64_t digest = request_digest(r);
  std::string cached;
  if (cache_.lookup(digest, &cached)) {
    ++counters_.ok;
    return ok_reply(r.id, cached);
  }
  const RunSpec& run = r.run;
  if (run.model == "sporadic" && r.bound_side == "sm") {
    ++counters_.bad_request;
    return error_reply(r.id, Status::kBadRequest,
                       "sporadic bounds are MP-only (Table 1, row 4)");
  }

  const bool sm = r.bound_side == "sm";
  const std::int64_t tree = smm_tree_latency_steps(run.spec.n, run.spec.b);
  bool in_rounds = false;
  Time lower = 0, upper = 0;
  std::int64_t lower_rounds = 0, upper_rounds = 0;
  std::optional<Ratio> gamma;
  if (run.model == "sync") {
    lower = upper = bounds::sync_tight(run.spec, run.c2);
  } else if (run.model == "periodic") {
    if (sm) {
      lower = bounds::periodic_sm_lower(run.spec, run.c2, run.c1);
      upper = bounds::periodic_sm_upper(run.spec, run.c2, tree);
    } else {
      lower = bounds::periodic_mp_lower(run.spec, run.c2, run.d2);
      upper = bounds::periodic_mp_upper(run.spec, run.c2, run.d2);
    }
  } else if (run.model == "semisync") {
    if (sm) {
      lower = bounds::semisync_sm_lower(run.spec, run.c1, run.c2);
      upper = bounds::semisync_sm_upper(run.spec, run.c1, run.c2, tree);
    } else {
      lower = bounds::semisync_mp_lower(run.spec, run.c1, run.c2, run.d2);
      upper = bounds::semisync_mp_upper(run.spec, run.c1, run.c2, run.d2);
    }
  } else if (run.model == "sporadic") {
    gamma = bounds::sporadic_K(run.c1, run.d1, run.d2);
    lower = bounds::sporadic_mp_lower(run.spec, run.c1, run.d1, run.d2);
    upper = bounds::sporadic_mp_upper(run.spec, run.c1, run.d1, run.d2, *gamma);
  } else {  // async
    if (sm) {
      in_rounds = true;
      lower_rounds = bounds::async_sm_lower_rounds(run.spec);
      upper_rounds = bounds::async_sm_upper_rounds(run.spec, tree);
    } else {
      lower = bounds::async_mp_lower(run.spec, run.d2);
      upper = bounds::async_mp_upper(run.spec, run.c2, run.d2);
    }
  }

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("op", "bound");
  w.field("model", run.model);
  w.field("side", r.bound_side);
  w.field("s", run.spec.s);
  w.field("n", static_cast<std::int64_t>(run.spec.n));
  w.field("b", static_cast<std::int64_t>(run.spec.b));
  w.field("c1", run.c1);
  w.field("c2", run.c2);
  w.field("d1", run.d1);
  w.field("d2", run.d2);
  w.field("measure", in_rounds ? "rounds" : "time");
  if (in_rounds) {
    w.field("lower", lower_rounds);
    w.field("upper", upper_rounds);
    w.field("lower_approx", static_cast<double>(lower_rounds));
    w.field("upper_approx", static_cast<double>(upper_rounds));
  } else {
    w.field("lower", lower);
    w.field("upper", upper);
    w.field("lower_approx", lower.to_double());
    w.field("upper_approx", upper.to_double());
  }
  if (gamma) {
    // The closed-form upper is per-computation in gamma; the served cell
    // instantiates gamma = K (Theorem 6.5's bound on any computation).
    w.field("K", *gamma);
    w.field("gamma", *gamma);
  }
  w.end_object();
  const std::string result = os.str();
  cache_.insert(digest, result);
  ++counters_.ok;
  return ok_reply(r.id, result);
}

std::string Server::handle_poll(const Request& r) {
  std::uint64_t key = 0;
  util::parse_fnv1a_hex(r.ticket, &key);  // validated by parse_request
  std::lock_guard<std::mutex> lk(ticket_mu_);
  const auto it = tickets_.find(key);
  if (it == tickets_.end()) {
    ++counters_.bad_request;
    return error_reply(r.id, Status::kBadRequest, "unknown ticket");
  }
  if (it->second.state == Ticket::State::kDone) {
    ++counters_.ok;
    return ok_reply(r.id, it->second.result_json);
  }
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("ticket", r.ticket);
  w.field("state",
          ticket_state_name(static_cast<std::uint8_t>(it->second.state)));
  if (it->second.state == Ticket::State::kInterrupted)
    w.field("resumable", !config_.journal_dir.empty());
  w.end_object();
  ++counters_.ok;
  return ok_reply(r.id, os.str());
}

std::string Server::submit_heavy(const Request& r) {
  const std::uint64_t digest = request_digest(r);
  std::shared_future<JobResult> fut;
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    const auto it = inflight_.find(digest);
    if (it != inflight_.end()) {
      ++counters_.coalesced;
      fut = it->second;
    } else {
      {
        std::lock_guard<std::mutex> qk(heavy_mu_);
        if (static_cast<std::int32_t>(heavy_queue_.size()) >=
            config_.admission.max_queue) {
          ++counters_.overloaded;
          return error_reply(r.id, Status::kOverloaded, "run queue full",
                             config_.admission.retry_after_ms);
        }
        auto prom = std::make_shared<std::promise<JobResult>>();
        fut = prom->get_future().share();
        inflight_[digest] = fut;
        heavy_queue_.push_back(HeavyJob{r, digest, std::move(prom)});
      }
      heavy_cv_.notify_one();
    }
  }
  return await_job(r, fut);
}

std::string Server::submit_sweep(const Request& r) {
  const std::uint64_t digest = request_digest(r);
  const std::string hex = util::fnv1a_hex(digest);
  {
    std::lock_guard<std::mutex> tk(ticket_mu_);
    const auto it = tickets_.find(digest);
    if (it != tickets_.end()) {
      // Identical sweep already known: reply with its current state (the
      // ticket dedup form of request coalescing).
      ++counters_.coalesced;
      if (it->second.state == Ticket::State::kDone) {
        ++counters_.ok;
        return ok_reply(r.id, it->second.result_json);
      }
      std::ostringstream os;
      obs::JsonWriter w(os);
      w.begin_object();
      w.field("ticket", hex);
      w.field("state",
              ticket_state_name(static_cast<std::uint8_t>(it->second.state)));
      w.end_object();
      ++counters_.ok;
      return ok_reply(r.id, os.str());
    }
    {
      std::lock_guard<std::mutex> qk(sweep_mu_);
      if (static_cast<std::int32_t>(sweep_queue_.size()) >=
          config_.admission.max_sweep_queue) {
        ++counters_.overloaded;
        return error_reply(r.id, Status::kOverloaded, "sweep queue full",
                           config_.admission.retry_after_ms);
      }
      tickets_[digest] = Ticket{};
      // Journal the request at enqueue time: a queued sweep is durable (and
      // --resume re-enqueues it) even if the server dies before it runs.
      if (!config_.journal_dir.empty()) {
        std::string jerr;
        auto j = recovery::RunJournal::create(sweep_journal_path(digest),
                                              kJournalTool, digest, &jerr);
        if (j) j->append(kRequestStage, 0, render_request(r));
      }
      sweep_queue_.push_back(SweepJob{r, digest});
    }
    sweep_cv_.notify_one();
  }
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("ticket", hex);
  w.field("state", "queued");
  w.end_object();
  ++counters_.ok;
  return ok_reply(r.id, os.str());
}

std::string Server::await_job(const Request& r,
                              std::shared_future<JobResult> future) {
  using clock = std::chrono::steady_clock;
  std::int64_t deadline_ms = r.deadline_ms > 0
                                 ? r.deadline_ms
                                 : config_.admission.default_deadline_ms;
  deadline_ms = std::min(deadline_ms, config_.limits.max_deadline_ms);
  const auto deadline = clock::now() + std::chrono::milliseconds(deadline_ms);
  for (;;) {
    const auto now = clock::now();
    if (now >= deadline) {
      ++counters_.timeout;
      return error_reply(r.id, Status::kTimeout,
                         "deadline of " + std::to_string(deadline_ms) +
                             " ms expired before the result was ready");
    }
    auto slice =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (slice > std::chrono::milliseconds(100))
      slice = std::chrono::milliseconds(100);
    if (future.wait_for(slice) == std::future_status::ready) break;
    if (stopping_.load()) {
      ++counters_.overloaded;
      return error_reply(r.id, Status::kOverloaded, "draining",
                         config_.admission.retry_after_ms);
    }
  }
  const JobResult& res = future.get();
  if (res.status == Status::kOk) {
    ++counters_.ok;
    return ok_reply(r.id, res.body);
  }
  if (res.status == Status::kBadRequest) ++counters_.bad_request;
  else if (res.status == Status::kOverloaded) ++counters_.overloaded;
  else ++counters_.timeout;
  return error_reply(
      r.id, res.status, res.body,
      res.status == Status::kOverloaded ? config_.admission.retry_after_ms
                                        : 0);
}

// --- Workers ---------------------------------------------------------------

void Server::heavy_worker_loop() {
  for (;;) {
    HeavyJob job;
    {
      std::unique_lock<std::mutex> lk(heavy_mu_);
      heavy_cv_.wait(lk, [&] {
        return stopping_.load() || !heavy_queue_.empty();
      });
      if (heavy_queue_.empty()) break;  // stopping with nothing queued
      job = std::move(heavy_queue_.front());
      heavy_queue_.pop_front();
    }
    if (config_.admission.test_heavy_delay_ms > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.admission.test_heavy_delay_ms));
    JobResult res = job.request.op == Op::kReplay ? compute_replay(job.request)
                                                  : compute_run(job.request);
    job.promise->set_value(std::move(res));
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      inflight_.erase(job.digest);
    }
  }
}

void Server::sweep_loop() {
  for (;;) {
    SweepJob job;
    {
      std::unique_lock<std::mutex> lk(sweep_mu_);
      sweep_cv_.wait(lk, [&] {
        return stopping_.load() || draining_.load() || !sweep_queue_.empty();
      });
      if (stopping_.load() || draining_.load()) break;
      job = std::move(sweep_queue_.front());
      sweep_queue_.pop_front();
    }
    if (config_.admission.test_heavy_delay_ms > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.admission.test_heavy_delay_ms));
    execute_sweep(job.request, job.digest);
  }
  // Drain: queued sweeps stay journaled on disk and resumable (the exit-75
  // contract).
  std::lock_guard<std::mutex> lk(sweep_mu_);
  if (!sweep_queue_.empty()) {
    sweep_interrupted_.store(true);
    counters_.sweeps_interrupted += static_cast<std::int64_t>(
        sweep_queue_.size());
    sweep_queue_.clear();
  }
}

// --- Compute ---------------------------------------------------------------

void Server::merge_job(obs::ObservationShard& shard) {
  std::lock_guard<std::mutex> lk(obs_mu_);
  shard.merge_into_parent();
}

// A single run or, for adversary=worst, the worst-case family; either way
// observed through a shard of the server's observer, without a supervisor.
Server::JobResult Server::compute_run(const Request& r) {
  JobResult res;
  obs::ObservationShard shard(&observer_);
  const bool worst = r.run.adversary == "worst";
  try {
    obs::ProfileScope scope(shard.observer()->profiler,
                            obs::ProfilePhase::kServeExec);
    const RunPlan plan = resolve_plan(r.run);
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    write_run_fields(w, r.run, plan.algorithm());
    if (worst) {
      const WorstCase wc = plan.worst_case(RunContext{shard.observer()});
      w.field("runs", static_cast<std::int64_t>(wc.runs));
      w.field("all_solved", wc.all_solved);
      w.field("min_sessions", wc.min_sessions);
      w.field("max_time", wc.max_termination);
      w.field("max_rounds", wc.max_rounds);
      if (!wc.first_failure.empty())
        w.field("first_failure", wc.first_failure);
    } else {
      const Verdict verdict = plan.run(nullptr, shard.observer()).verdict;
      w.field("sessions", verdict.sessions);
      w.field("admissible", verdict.admissible);
      w.field("solves", verdict.solves);
      if (verdict.termination_time)
        w.field("termination", *verdict.termination_time);
      w.field("rounds", verdict.rounds.rounds_ceiling());
      if (verdict.gamma) w.field("gamma", *verdict.gamma);
    }
    w.end_object();
    res = JobResult{Status::kOk, os.str()};
  } catch (const std::exception& e) {
    res = JobResult{Status::kBadRequest,
                    std::string(worst ? "worst-case run failed: "
                                      : "run failed: ") +
                        e.what()};
  }
  merge_job(shard);
  return res;
}

Server::JobResult Server::compute_replay(const Request& r) {
  JobResult res;
  obs::ObservationShard shard(&observer_);
  try {
    obs::ProfileScope scope(shard.observer()->profiler,
                            obs::ProfilePhase::kServeExec);
    std::string err;
    const auto trace = trace_from_text(r.trace_text, &err);
    if (!trace) {
      res = JobResult{Status::kBadRequest, "bad trace: " + err};
    } else {
      const ReplayReport report =
          resolve_plan(r.run).replay(*trace, shard.observer());
      std::ostringstream os;
      obs::JsonWriter w(os);
      w.begin_object();
      w.field("op", "replay");
      w.field("substrate", r.run.substrate);
      w.field("model", r.run.model);
      w.field("match", report.match);
      w.field("divergence", static_cast<std::int64_t>(report.divergence));
      if (!report.detail.empty()) w.field("detail", report.detail);
      w.end_object();
      res = JobResult{Status::kOk, os.str()};
    }
  } catch (const std::exception& e) {
    res = JobResult{Status::kBadRequest, std::string("replay failed: ") +
                                             e.what()};
  }
  merge_job(shard);
  return res;
}

void Server::execute_sweep(const Request& r, std::uint64_t digest) {
  {
    std::lock_guard<std::mutex> lk(ticket_mu_);
    tickets_[digest].state = Ticket::State::kRunning;
  }
  std::unique_ptr<recovery::RunJournal> journal;
  if (!config_.journal_dir.empty()) {
    std::string jerr;
    journal = recovery::RunJournal::open_resume(sweep_journal_path(digest),
                                                &jerr);
    if (journal && !journal->matches(kJournalTool, digest)) journal.reset();
  }
  if (journal) {
    // A journaled report replays verbatim: byte-identical across restarts
    // without recomputation.
    if (const std::string* stored = journal->lookup(kReportStage, 0)) {
      std::lock_guard<std::mutex> lk(ticket_mu_);
      Ticket& t = tickets_[digest];
      t.state = Ticket::State::kDone;
      t.result_json = *stored;
      ++counters_.sweeps_completed;
      return;
    }
  }

  const RunPlan plan = resolve_plan(r.run);
  obs::ObservationShard shard(&observer_);
  recovery::Supervisor sup(std::move(journal));
  bool chaos_here = false;
  if (config_.chaos_stop_after >= 0 && !chaos_armed_.exchange(true)) {
    sup.set_stop_after(config_.chaos_stop_after);
    chaos_here = true;
  }
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    active_sup_ = &sup;
  }
  // request_drain between the active_sup_ registration races above would
  // have set draining_ first; re-check so a drained server never starts a
  // sweep it cannot stop.
  if (draining_.load()) sup.request_stop();

  DegradationReport report;
  std::string failure;
  {
    obs::ProfileScope scope(shard.observer()->profiler,
                            obs::ProfilePhase::kServeExec);
    try {
      report = plan.degradation(RunContext{shard.observer(), &sup});
    } catch (const std::exception& e) {
      // ArithmeticOverflow passes the supervisor's task isolation: the
      // instance itself is unusable, so the ticket ends failed.
      failure = e.what();
    }
  }
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    active_sup_ = nullptr;
  }
  merge_job(shard);

  if (sup.interrupted()) {
    {
      std::lock_guard<std::mutex> lk(ticket_mu_);
      tickets_[digest].state = Ticket::State::kInterrupted;
    }
    sweep_interrupted_.store(true);
    ++counters_.sweeps_interrupted;
    // A chaos trip drains the whole server, exactly like SIGTERM: the
    // journal holds the completed slots, --resume finishes the sweep.
    if (chaos_here) request_drain();
    return;
  }

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("ticket", util::fnv1a_hex(digest));
  if (!failure.empty()) {
    w.field("state", "failed");
    w.field("error", "sweep failed: " + failure);
    w.end_object();
    std::lock_guard<std::mutex> lk(ticket_mu_);
    Ticket& t = tickets_[digest];
    t.state = Ticket::State::kDone;
    t.result_json = os.str();
    return;
  }
  // Report text identical (from the algorithm line on) to
  //   sesp_cli --degradation --substrate=... --model=... --seed=...
  std::ostringstream text;
  text << "algorithm:   " << plan.algorithm() << "\n"
       << report.to_string() << "solved/degraded/diagnosed: "
       << report.count(RunOutcome::kSolved) << "/"
       << report.count(RunOutcome::kDegraded) << "/"
       << report.count(RunOutcome::kDiagnosed) << "\n";
  w.field("state", "done");
  w.field("op", "sweep");
  w.field("substrate", r.run.substrate);
  w.field("model", r.run.model);
  w.field("algorithm", plan.algorithm());
  w.field("solved",
          static_cast<std::int64_t>(report.count(RunOutcome::kSolved)));
  w.field("degraded",
          static_cast<std::int64_t>(report.count(RunOutcome::kDegraded)));
  w.field("diagnosed",
          static_cast<std::int64_t>(report.count(RunOutcome::kDiagnosed)));
  w.field("report", text.str());
  w.end_object();
  const std::string result = os.str();
  if (sup.journal() != nullptr) sup.journal()->append(kReportStage, 0, result);
  {
    std::lock_guard<std::mutex> lk(ticket_mu_);
    Ticket& t = tickets_[digest];
    t.state = Ticket::State::kDone;
    t.result_json = result;
  }
  ++counters_.sweeps_completed;
}

// --- Journal / resume ------------------------------------------------------

std::string Server::sweep_journal_path(std::uint64_t digest) const {
  return config_.journal_dir + "/sweep-" + util::fnv1a_hex(digest) +
         ".journal";
}

bool Server::load_resumable_sweeps(std::string* error) {
  (void)error;
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> paths;
  for (fs::directory_iterator it(config_.journal_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("sweep-", 0) == 0 &&
        name.size() > 14 &&
        name.compare(name.size() - 8, 8, ".journal") == 0)
      paths.push_back(it->path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    const recovery::JournalSnapshot snap =
        recovery::read_journal_snapshot(path);
    if (!snap.ok || snap.tool != kJournalTool) continue;
    const std::string* request_payload = nullptr;
    const std::string* report_payload = nullptr;
    for (const recovery::JournalRecord& rec : snap.records) {
      if (rec.slot != 0) continue;
      if (rec.stage == kRequestStage) request_payload = &rec.payload;
      if (rec.stage == kReportStage) report_payload = &rec.payload;
    }
    if (request_payload == nullptr) continue;
    Request req;
    std::string err;
    if (!parse_request(*request_payload, config_.limits, &req, &err)) continue;
    if (req.op != Op::kSweep) continue;
    const std::uint64_t digest = request_digest(req);
    if (digest != snap.config_digest) continue;  // journal guard

    std::lock_guard<std::mutex> tk(ticket_mu_);
    if (tickets_.count(digest) != 0) continue;
    Ticket& t = tickets_[digest];
    if (report_payload != nullptr) {
      t.state = Ticket::State::kDone;
      t.result_json = *report_payload;
    } else {
      t.state = Ticket::State::kQueued;
      std::lock_guard<std::mutex> qk(sweep_mu_);
      sweep_queue_.push_back(SweepJob{req, digest});
      ++resumed_;
      ++counters_.sweeps_resumed;
    }
  }
  return true;
}

// --- Stats -----------------------------------------------------------------

std::string Server::stats_json() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("op", "stats");
  w.field("schema", kProtocolSchema);
  w.field("draining", draining_.load());
  w.key("counters");
  w.begin_object();
  w.field("connections_accepted", counters_.connections_accepted.load());
  w.field("connections_shed", counters_.connections_shed.load());
  w.field("connections_dropped", counters_.connections_dropped.load());
  w.field("requests", counters_.requests.load());
  w.field("ok", counters_.ok.load());
  w.field("bad_request", counters_.bad_request.load());
  w.field("overloaded", counters_.overloaded.load());
  w.field("timeout", counters_.timeout.load());
  w.field("rate_limited", counters_.rate_limited.load());
  w.field("coalesced", counters_.coalesced.load());
  w.field("sweeps_completed", counters_.sweeps_completed.load());
  w.field("sweeps_interrupted", counters_.sweeps_interrupted.load());
  w.field("sweeps_resumed", counters_.sweeps_resumed.load());
  w.end_object();
  const CacheStats cs = cache_.stats();
  w.key("cache");
  w.begin_object();
  w.field("hits", cs.hits);
  w.field("misses", cs.misses);
  w.field("evictions", cs.evictions);
  w.field("entries", cs.entries);
  w.end_object();
  w.key("connections");
  w.begin_object();
  w.field("count", static_cast<std::int64_t>(connection_gate_.count()));
  w.field("peak", static_cast<std::int64_t>(connection_gate_.peak()));
  w.field("limit", static_cast<std::int64_t>(connection_gate_.limit()));
  w.field("rejected", connection_gate_.rejected());
  w.end_object();
  w.key("queues");
  w.begin_object();
  {
    std::lock_guard<std::mutex> lk(heavy_mu_);
    w.field("heavy", static_cast<std::int64_t>(heavy_queue_.size()));
  }
  w.field("heavy_limit",
          static_cast<std::int64_t>(config_.admission.max_queue));
  {
    std::lock_guard<std::mutex> lk(sweep_mu_);
    // The sweep queue keeps its sesp-serve/1 field name.
    w.field("exclusive", static_cast<std::int64_t>(sweep_queue_.size()));
  }
  w.field("exclusive_limit",
          static_cast<std::int64_t>(config_.admission.max_sweep_queue));
  w.end_object();
  w.key("tickets");
  w.begin_object();
  {
    std::int64_t by_state[4] = {0, 0, 0, 0};
    std::lock_guard<std::mutex> lk(ticket_mu_);
    for (const auto& [key, t] : tickets_)
      ++by_state[static_cast<std::uint8_t>(t.state)];
    w.field("queued", by_state[0]);
    w.field("running", by_state[1]);
    w.field("done", by_state[2]);
    w.field("interrupted", by_state[3]);
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace sesp::serve
