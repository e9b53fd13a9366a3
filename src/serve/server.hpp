#pragma once

// The sesp serve core (docs/serving.md): a multi-threaded localhost TCP
// server speaking sesp-serve/1, built so that *every* resource a client can
// consume is bounded and every bound degrades to a structured reply:
//
//   * bound    — Table-1 cells from a digest-keyed LRU of rendered result
//                bytes; replies are byte-identical on every hit.
//   * run      — simulator runs, and adversary=worst worst-case families,
//                on a small heavy-worker pool, coalesced by request digest
//                (identical concurrent requests share one execution).
//   * replay   — differential trace replay on the heavy pool.
//   * sweep    — degradation sweeps on ONE sweep executor thread under a
//                recovery::Supervisor with a per-sweep journal
//                (journal_dir/sweep-<digest>.journal); the reply is a
//                ticket, poll returns the report. Interrupted sweeps
//                (SIGTERM, chaos) stay resumable; --resume re-enqueues
//                them and finished reports replay byte-identically.
//   * health / stats — inline, never queued.
//
// Robustness contract (serve_test, scripts/serve_smoke.sh):
//   - malformed input of any shape gets BadRequest, never a crash;
//   - past any admission bound (connections, queues, rate, drain) the
//     reply is Overloaded with retry_after_ms, never an unbounded buffer;
//   - an accepted request is answered within its deadline or with a
//     structured Timeout;
//   - request_drain() stops accepting, finishes or journals in-flight
//     work, and interrupted() tells the tool to exit 75 (EX_TEMPFAIL).
//
// Threading: one accept thread, one OS thread per connection (bounded by
// max_connections), heavy_workers run/replay executors, and one sweep
// executor (tickets, journals and drain are per sweep). Each job observes
// through its own shard of the server's observer and gets its supervisor
// (sweeps only) in its RunContext; no worker reads a process global, so a
// worst case never touches the journal of a sweep running beside it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace sesp::recovery {
class Supervisor;
}  // namespace sesp::recovery

namespace sesp::serve {

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; port() reports the bound one
  AdmissionConfig admission;
  ProtocolLimits limits;
  std::string journal_dir;  // empty = sweeps run without durability
  bool resume = false;      // re-enqueue journaled sweeps at start()
  // Chaos hook: the first executed sweep's supervisor requests a stop at
  // its N-th journal append, after which the server drains as if SIGTERM'd
  // (exit-75 path). < 0 disables. Slots already running when the stop is
  // raised still finish and journal, so how many slots the interrupted run
  // checkpoints varies run to run; what is deterministic is the resumed
  // report, byte-identical to an uninterrupted run's.
  std::int64_t chaos_stop_after = -1;
};

// Lock-free request-path counters (the serve.* metrics). Exposed by the
// stats op and folded into the server's observer at stop().
struct ServeCounters {
  std::atomic<std::int64_t> connections_accepted{0};
  std::atomic<std::int64_t> connections_shed{0};   // over the connection cap
  std::atomic<std::int64_t> connections_dropped{0};  // slow writes, oversize
  std::atomic<std::int64_t> requests{0};
  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> bad_request{0};
  std::atomic<std::int64_t> overloaded{0};
  std::atomic<std::int64_t> timeout{0};
  std::atomic<std::int64_t> rate_limited{0};
  std::atomic<std::int64_t> coalesced{0};  // run/replay joins on in-flight
  std::atomic<std::int64_t> sweeps_completed{0};
  std::atomic<std::int64_t> sweeps_interrupted{0};
  std::atomic<std::int64_t> sweeps_resumed{0};
};

class Server {
 public:
  // `observer` (optional, unowned; null = the process default observer, if
  // any) receives everything the server observed, folded in at stop().
  explicit Server(ServerConfig config, obs::Observer* observer = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1, starts every thread, and (with resume set) re-enqueues
  // journaled sweeps. False + *error on bind/listen failure.
  bool start(std::string* error);

  std::uint16_t port() const noexcept { return port_; }

  // SIGTERM path: stop accepting, shed new requests with Overloaded
  // ("draining"), stop the running sweep through its supervisor (journaled,
  // resumable). Idempotent, safe from any thread.
  void request_drain();

  // Full shutdown: drains, joins every thread, folds the server's private
  // observability into its observer. Idempotent.
  void stop();

  // True when any sweep was interrupted (drain or chaos) — the tool's
  // exit-75 signal.
  bool interrupted() const noexcept;

  bool draining() const noexcept { return draining_.load(); }
  const ServeCounters& counters() const noexcept { return counters_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  std::int64_t resumed_sweeps() const noexcept { return resumed_; }

  // Rendered stats result object (the stats op's result bytes).
  std::string stats_json() const;

 private:
  // A queued heavy job (run/replay): fulfilled with the rendered result
  // object (kOk), or a status + detail the waiter turns into an error reply.
  struct JobResult {
    Status status = Status::kOk;
    std::string body;  // result bytes (kOk) or error detail otherwise
  };
  struct HeavyJob {
    Request request;
    std::uint64_t digest = 0;
    std::shared_ptr<std::promise<JobResult>> promise;
  };
  // A ticketed sweep, queued for the sweep executor.
  struct SweepJob {
    Request request;
    std::uint64_t digest = 0;
  };

  struct Ticket {
    enum class State : std::uint8_t { kQueued, kRunning, kDone, kInterrupted };
    State state = State::kQueued;
    std::string result_json;  // kDone: rendered poll result bytes
  };

  void accept_loop();
  void reap_finished_connections();
  void connection_loop(int fd, std::uint64_t conn_id);
  void heavy_worker_loop();
  void sweep_loop();

  // One request line end-to-end; returns the reply line (no newline).
  std::string handle_line(const std::string& line, TokenBucket& bucket,
                          obs::Profiler* profiler);
  std::string dispatch(const Request& request, obs::Profiler* profiler);

  std::string handle_bound(const Request& request);
  std::string handle_poll(const Request& request);
  std::string handle_health(const Request& request);
  std::string submit_heavy(const Request& request);
  std::string submit_sweep(const Request& request);

  // Waits on a heavy job future under the request deadline.
  std::string await_job(const Request& request,
                        std::shared_future<JobResult> future);

  // Jobs observe through a shard of observer_ (its profiler times the
  // serve.exec phase); this folds one in when the job ends.
  void merge_job(obs::ObservationShard& shard);
  JobResult compute_run(const Request& request);
  JobResult compute_replay(const Request& request);
  void execute_sweep(const Request& request, std::uint64_t digest);

  // Creates (or resumes) the sweep journal and guarantees the original
  // request is journaled under the "serve.request" stage.
  std::string sweep_journal_path(std::uint64_t digest) const;

  bool load_resumable_sweeps(std::string* error);

  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> sweep_interrupted_{false};
  std::atomic<bool> chaos_armed_{false};
  std::int64_t resumed_ = 0;

  ServeCounters counters_;
  ResultCache cache_;
  BoundedCounter connection_gate_;

  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::map<std::uint64_t, std::thread> connections_;  // id -> thread
  std::vector<std::uint64_t> finished_conn_ids_;      // reaped by accept loop
  std::uint64_t next_conn_id_ = 0;

  // The running sweep's supervisor, registered by the sweep executor so
  // request_drain() can stop it from any thread.
  std::mutex sup_mu_;
  recovery::Supervisor* active_sup_ = nullptr;

  mutable std::mutex heavy_mu_;
  std::condition_variable heavy_cv_;
  std::deque<HeavyJob> heavy_queue_;
  std::vector<std::thread> heavy_threads_;

  mutable std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  std::deque<SweepJob> sweep_queue_;
  std::thread sweep_thread_;

  // In-flight run/replay coalescing: digest -> shared future.
  std::mutex inflight_mu_;
  std::map<std::uint64_t, std::shared_future<JobResult>> inflight_;

  mutable std::mutex ticket_mu_;
  std::map<std::uint64_t, Ticket> tickets_;

  // Server-private observability, folded into parent_ at stop(): heavy
  // jobs and sweeps observe through ObservationShards parented here
  // (merged under obs_mu_), connection profilers fold here at close. The
  // trace half exists only when parent_ traces.
  obs::Observer* parent_ = nullptr;
  mutable std::mutex obs_mu_;
  obs::MetricsRegistry metrics_;
  obs::Profiler profiler_;
  obs::TraceSink trace_;
  obs::Observer observer_;
};

}  // namespace sesp::serve
