// Tests for the serve layer (src/serve/, docs/serving.md): admission
// primitives driven deterministically with synthetic clocks, the hardened
// protocol parser under fuzzed input, and the full Server over real
// localhost sockets — byte-identical bound replies, structured overload
// and timeout degradation, coalescing, sweep tickets with journaled
// resume, and fd-stable drain/restart cycles.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/digest.hpp"

namespace sesp::serve {
namespace {

namespace fs = std::filesystem;
using clock_tp = TokenBucket::clock::time_point;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Admission primitives (no sockets, no real time)

TEST(TokenBucketTest, BurstThenRefusalThenRefill) {
  TokenBucket bucket(10.0, 3.0);  // 10 tokens/sec, burst of 3
  clock_tp now{};
  now += milliseconds(1);
  EXPECT_TRUE(bucket.admit(now));
  EXPECT_TRUE(bucket.admit(now));
  EXPECT_TRUE(bucket.admit(now));
  EXPECT_FALSE(bucket.admit(now));  // burst exhausted
  const std::int64_t retry = bucket.retry_after_ms(now);
  EXPECT_GT(retry, 0);
  EXPECT_LE(retry, 101);  // one token at 10/sec is 100ms away
  now += milliseconds(150);
  EXPECT_TRUE(bucket.admit(now));  // refilled
  EXPECT_FALSE(bucket.admit(now));
}

TEST(TokenBucketTest, TokensCapAtBurst) {
  TokenBucket bucket(1000.0, 2.0);
  clock_tp now{};
  now += milliseconds(1);
  EXPECT_TRUE(bucket.admit(now));
  now += std::chrono::seconds(60);  // a long idle gap must not bank tokens
  EXPECT_TRUE(bucket.admit(now));
  EXPECT_TRUE(bucket.admit(now));
  EXPECT_FALSE(bucket.admit(now));
}

TEST(BoundedCounterTest, LimitPeakRejectedRelease) {
  BoundedCounter gate(2);
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_FALSE(gate.try_acquire());
  EXPECT_FALSE(gate.try_acquire());
  EXPECT_EQ(gate.count(), 2);
  EXPECT_EQ(gate.peak(), 2);
  EXPECT_EQ(gate.rejected(), 2);
  gate.release();
  EXPECT_EQ(gate.count(), 1);
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_EQ(gate.limit(), 2);
}

TEST(ResultCacheTest, LruEvictionAndRecencyRefresh) {
  ResultCache cache(2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  std::string out;
  ASSERT_TRUE(cache.lookup(1, &out));  // refreshes 1; 2 is now oldest
  EXPECT_EQ(out, "one");
  cache.insert(3, "three");  // evicts 2
  EXPECT_FALSE(cache.lookup(2, &out));
  EXPECT_TRUE(cache.lookup(1, &out));
  EXPECT_TRUE(cache.lookup(3, &out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ResultCacheTest, FirstInsertionWins) {
  ResultCache cache(4);
  cache.insert(7, "first");
  cache.insert(7, "second");  // concurrent recompute renders identical bytes
  std::string out;
  ASSERT_TRUE(cache.lookup(7, &out));
  EXPECT_EQ(out, "first");
}

// ---------------------------------------------------------------------------
// Protocol parser: validation, canonical rendering, digests, fuzz

TEST(ProtocolTest, ParsesMinimalRequests) {
  const ProtocolLimits limits;
  Request r;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"id":7,"op":"health"})", limits, &r, &error))
      << error;
  EXPECT_EQ(r.id, 7);
  EXPECT_EQ(r.op, Op::kHealth);
  ASSERT_TRUE(parse_request(
      R"({"id":1,"op":"bound","model":"semisync","side":"mp"})", limits, &r,
      &error))
      << error;
  EXPECT_EQ(r.op, Op::kBound);
  EXPECT_EQ(r.bound_side, "mp");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  const ProtocolLimits limits;
  Request r;
  std::string error;
  const char* bad[] = {
      "",                                         // empty
      "not json",                                 // not JSON
      "[1,2,3]",                                  // not an object
      R"({"id":1})",                              // missing op
      R"({"id":1,"op":"warp"})",                  // unknown op
      R"({"id":1,"op":"bound","side":"both"})",   // bad side
      R"({"id":1,"op":"bound","model":"tachyon"})",  // unknown model
      R"({"id":1,"op":"run","substrate":"p2p"})",    // unserved substrate
      R"({"id":1,"op":"run","adversary":"gentle"})",  // unknown adversary
      R"({"id":1,"op":"bound","s":100000})",      // s over cap
      R"({"id":1,"op":"bound","n":9999})",        // n over cap
      R"({"id":1,"op":"bound","c1":"3","c2":"2"})",  // c1 > c2
      R"({"id":1,"op":"bound","c2":"0"})",        // c2 must be positive
      R"({"id":1,"op":"bound","c1":"x/y"})",      // unparseable ratio
      R"({"id":1,"op":"replay"})",                // replay without trace
      R"({"id":1,"op":"poll"})",                  // poll without ticket
      R"({"id":1,"op":"poll","ticket":"zz"})",    // malformed ticket
      R"({"id":1,"op":"health","deadline_ms":999999999})",  // over cap
  };
  for (const char* line : bad) {
    EXPECT_FALSE(parse_request(line, limits, &r, &error))
        << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(ProtocolTest, BestEffortIdOnBadRequests) {
  const ProtocolLimits limits;
  Request r;
  std::string error;
  EXPECT_FALSE(parse_request(R"({"id":42,"op":"warp"})", limits, &r, &error));
  EXPECT_EQ(r.id, 42);  // the reply can still echo the id
}

TEST(ProtocolTest, DepthCapIsEnforced) {
  const ProtocolLimits limits;
  std::string deep = R"({"id":1,"op":"health","x":)";
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  deep += "}";
  Request r;
  std::string error;
  EXPECT_FALSE(parse_request(deep, limits, &r, &error));
}

TEST(ProtocolTest, RenderRequestRoundTrips) {
  const ProtocolLimits limits;
  Request r;
  r.id = 9;
  r.op = Op::kSweep;
  r.run.substrate = "smm";
  r.run.model = "periodic";
  r.run.spec = ProblemSpec{4, 5, 2};
  r.run.c1 = Ratio(1, 3);
  r.run.c2 = Ratio(7, 2);
  r.run.d1 = Ratio(1, 4);
  r.run.d2 = Ratio(9, 2);
  r.run.seed = 777;
  r.deadline_ms = 2'500;
  const std::string line = render_request(r);
  Request back;
  std::string error;
  ASSERT_TRUE(parse_request(line, limits, &back, &error)) << error << "\n"
                                                          << line;
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.op, r.op);
  EXPECT_EQ(back.run.substrate, r.run.substrate);
  EXPECT_EQ(back.run.model, r.run.model);
  EXPECT_EQ(back.run.spec.s, r.run.spec.s);
  EXPECT_EQ(back.run.spec.n, r.run.spec.n);
  EXPECT_EQ(back.run.spec.b, r.run.spec.b);
  EXPECT_EQ(back.run.c1, r.run.c1);
  EXPECT_EQ(back.run.c2, r.run.c2);
  EXPECT_EQ(back.run.d1, r.run.d1);
  EXPECT_EQ(back.run.d2, r.run.d2);
  EXPECT_EQ(back.run.seed, r.run.seed);
  EXPECT_EQ(back.deadline_ms, r.deadline_ms);
  EXPECT_EQ(request_digest(back), request_digest(r));
}

// The canonical bytes and digests of one fixed request, pinned to recorded
// values: the rendered line is the journaled sweep form and the digest is
// the sweep ticket and journal guard, so neither may move.
TEST(ProtocolTest, RenderAndDigestArePinned) {
  const std::string line =
      R"({"id":12,"op":"sweep","substrate":"smm","model":"periodic",)"
      R"("adversary":"lockstep","s":4,"n":5,"b":3,"c1":"1/3","c2":"7/2",)"
      R"("d1":"1/4","d2":"9/2","seed":777,"deadline_ms":2500})";
  Request r;
  std::string error;
  ASSERT_TRUE(parse_request(line, ProtocolLimits{}, &r, &error)) << error;
  EXPECT_EQ(render_request(r),
            R"({"id":12,"op":"sweep","substrate":"smm","side":"mp",)"
            R"("model":"periodic","adversary":"lockstep","s":4,"n":5,"b":3,)"
            R"("c1":"1/3","c2":"7/2","d1":"1/4","d2":"9/2","seed":777,)"
            R"("deadline_ms":2500})");
  EXPECT_EQ(util::fnv1a_hex(request_digest(r)), "369324ed7a53f4cd");
  r.op = Op::kRun;
  EXPECT_EQ(util::fnv1a_hex(request_digest(r)), "b549842f13dfc3cf");
  r.op = Op::kBound;
  EXPECT_EQ(util::fnv1a_hex(request_digest(r)), "72dc021e78c18ade");
}

TEST(ProtocolTest, DigestIgnoresIdAndDeadline) {
  Request a;
  a.op = Op::kRun;
  a.id = 1;
  Request b = a;
  b.id = 999;
  b.deadline_ms = 5'000;
  EXPECT_EQ(request_digest(a), request_digest(b));
  Request c = a;
  c.run.seed = a.run.seed + 1;
  EXPECT_NE(request_digest(a), request_digest(c));
}

TEST(ProtocolTest, BoundDigestIgnoresAdversaryAndSeed) {
  Request a;
  a.op = Op::kBound;
  Request b = a;
  b.run.adversary = "lockstep";
  b.run.seed = a.run.seed + 123;
  EXPECT_EQ(request_digest(a), request_digest(b));
  Request c = a;
  c.bound_side = "sm";
  EXPECT_NE(request_digest(a), request_digest(c));
}

// Fuzz the parser the way obs_test fuzzes the JSON round-trip: random byte
// garbage, structural JSON noise, and random mutations of a valid request.
// The contract is "false + error, never a crash".
TEST(ProtocolTest, FuzzedInputNeverCrashes) {
  const ProtocolLimits limits;
  std::mt19937_64 rng(0x5e59'f022);
  const std::string valid = render_request(Request{});
  for (int iter = 0; iter < 2'000; ++iter) {
    std::string line;
    switch (iter % 3) {
      case 0: {  // raw bytes, any value
        const std::size_t len = rng() % 200;
        for (std::size_t i = 0; i < len; ++i)
          line.push_back(static_cast<char>(rng() & 0xff));
        break;
      }
      case 1: {  // JSON-ish token soup
        static const char* tokens[] = {"{",  "}",    "[",    "]",   ":",
                                       ",",  "\"a\"", "1e99", "-0",  "null",
                                       "true", "\"op\"", "\"id\"", "1992"};
        const std::size_t len = 1 + rng() % 40;
        for (std::size_t i = 0; i < len; ++i)
          line += tokens[rng() % (sizeof tokens / sizeof *tokens)];
        break;
      }
      default: {  // valid request with random byte mutations
        line = valid;
        const std::size_t flips = 1 + rng() % 6;
        for (std::size_t i = 0; i < flips; ++i)
          line[rng() % line.size()] = static_cast<char>(rng() & 0xff);
        break;
      }
    }
    Request r;
    std::string error;
    if (!parse_request(line, limits, &r, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Socket-level tests: a minimal line-framed client for the in-process server

class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t k = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return false;
      off += static_cast<std::size_t>(k);
    }
    return true;
  }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  std::optional<std::string> read_line(std::int64_t timeout_ms = 10'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, 100);
      if (pr < 0 && errno != EINTR) return std::nullopt;
      if (pr <= 0) continue;
      char chunk[4096];
      const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
      if (k == 0) return std::nullopt;  // peer closed
      if (k < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return std::nullopt;
      }
      buffer_.append(chunk, static_cast<std::size_t>(k));
    }
  }

  // Sends one request line and returns the parsed reply.
  std::optional<obs::JsonValue> call(const std::string& line,
                                     std::int64_t timeout_ms = 10'000) {
    if (!send_line(line)) return std::nullopt;
    const auto reply = read_line(timeout_ms);
    if (!reply) return std::nullopt;
    return obs::parse_json(*reply);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string reply_status(const obs::JsonValue& doc) {
  const auto* status = doc.find("status");
  return status != nullptr && status->is_string() ? status->string : "";
}

fs::path fresh_dir(const std::string& stem) {
  const fs::path dir =
      fs::temp_directory_path() /
      (stem + "-" + std::to_string(::getpid()) + "-" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Polls a sweep ticket until done; returns the rendered report text.
std::optional<std::string> wait_report(TestClient& client,
                                       const std::string& ticket,
                                       std::int64_t timeout_ms = 60'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::int64_t id = 100;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto doc = client.call("{\"id\":" + std::to_string(id++) +
                                 ",\"op\":\"poll\",\"ticket\":\"" + ticket +
                                 "\"}");
    if (!doc || reply_status(*doc) != "Ok") return std::nullopt;
    const auto* result = doc->find("result");
    if (result == nullptr) return std::nullopt;
    const auto* state = result->find("state");
    if (state == nullptr || !state->is_string()) return std::nullopt;
    if (state->string == "done") {
      const auto* report = result->find("report");
      if (report == nullptr || !report->is_string()) return std::nullopt;
      return report->string;
    }
    if (state->string == "interrupted") return std::nullopt;
    std::this_thread::sleep_for(milliseconds(50));
  }
  return std::nullopt;
}

struct ServeEnv : ::testing::Environment {
  void SetUp() override { ::setenv("SESP_JOURNAL_FSYNC", "0", 1); }
};
const auto* const kServeEnv =
    ::testing::AddGlobalTestEnvironment(new ServeEnv);

TEST(ServerTest, BoundRepliesAreByteIdenticalAndCached) {
  Server server(ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string req =
      R"({"id":1,"op":"bound","model":"semisync","side":"mp"})";
  ASSERT_TRUE(client.send_line(req));
  ASSERT_TRUE(client.send_line(req));
  ASSERT_TRUE(client.send_line(req));
  const auto first = client.read_line();
  const auto second = client.read_line();
  const auto third = client.read_line();
  ASSERT_TRUE(first && second && third);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(*second, *third);
  const auto doc = obs::parse_json(*first);
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "Ok");

  server.stop();
  EXPECT_GE(server.cache_stats().hits, 2);
  EXPECT_EQ(server.counters().ok.load(), 3);
  EXPECT_EQ(server.counters().bad_request.load(), 0);
  EXPECT_FALSE(server.interrupted());
}

TEST(ServerTest, AllTableOneCellsServe) {
  Server server(ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const char* models[] = {"sync", "periodic", "semisync", "async"};
  std::int64_t id = 1;
  for (const char* model : models) {
    for (const char* side : {"sm", "mp"}) {
      const auto doc = client.call(
          "{\"id\":" + std::to_string(id++) +
          ",\"op\":\"bound\",\"model\":\"" + model + "\",\"side\":\"" + side +
          "\"}");
      ASSERT_TRUE(doc) << model << "/" << side;
      EXPECT_EQ(reply_status(*doc), "Ok") << model << "/" << side;
    }
  }
  // Sporadic is MP-only (Table 1, row 4): mp serves, sm is a BadRequest.
  auto doc = client.call(
      R"({"id":90,"op":"bound","model":"sporadic","side":"mp","c1":"1","d1":"1","d2":"4"})");
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "Ok");
  doc = client.call(
      R"({"id":91,"op":"bound","model":"sporadic","side":"sm","c1":"1","d1":"1","d2":"4"})");
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "BadRequest");
  server.stop();
}

TEST(ServerTest, DeadlineExpiryIsStructuredTimeout) {
  ServerConfig config;
  config.admission.test_heavy_delay_ms = 500;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const auto doc = client.call(
      R"({"id":5,"op":"run","adversary":"lockstep","deadline_ms":50})");
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "Timeout");
  const auto* err = doc->find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->string.find("deadline"), std::string::npos);
  server.stop();
  EXPECT_EQ(server.counters().timeout.load(), 1);
}

TEST(ServerTest, RateLimitShedsWithRetryAfter) {
  ServerConfig config;
  config.admission.rate_per_sec = 0.001;  // effectively no refill
  config.admission.burst = 3.0;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  int ok = 0, overloaded = 0;
  for (int i = 0; i < 10; ++i) {
    const auto doc = client.call("{\"id\":" + std::to_string(i) +
                                 ",\"op\":\"health\"}");
    ASSERT_TRUE(doc);
    const std::string status = reply_status(*doc);
    if (status == "Ok") ++ok;
    if (status == "Overloaded") {
      ++overloaded;
      const auto* retry = doc->find("retry_after_ms");
      ASSERT_NE(retry, nullptr);
      EXPECT_GT(retry->number, 0);
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(overloaded, 7);
  server.stop();
  EXPECT_EQ(server.counters().rate_limited.load(), 7);
}

TEST(ServerTest, ConnectionCapShedsExtraClients) {
  ServerConfig config;
  config.admission.max_connections = 2;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient first(server.port());
  TestClient second(server.port());
  ASSERT_TRUE(first.connected() && second.connected());
  ASSERT_TRUE(first.call(R"({"id":1,"op":"health"})"));
  ASSERT_TRUE(second.call(R"({"id":1,"op":"health"})"));
  // The third connection gets a best-effort Overloaded notice, then EOF.
  TestClient third(server.port());
  ASSERT_TRUE(third.connected());
  const auto line = third.read_line(5'000);
  if (line) {  // the shed notice races the close; both shapes are legal
    const auto doc = obs::parse_json(*line);
    ASSERT_TRUE(doc);
    EXPECT_EQ(reply_status(*doc), "Overloaded");
  }
  EXPECT_FALSE(third.read_line(2'000));  // connection is closed
  server.stop();
  EXPECT_GE(server.counters().connections_shed.load(), 1);
}

TEST(ServerTest, OverloadFloodDegradesStructurally) {
  ServerConfig config;
  config.admission.heavy_workers = 1;
  config.admission.max_queue = 1;
  config.admission.test_heavy_delay_ms = 300;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Prime the bound cache before the flood.
  TestClient probe(server.port());
  ASSERT_TRUE(probe.connected());
  const std::string bound_req =
      R"({"id":1,"op":"bound","model":"semisync","side":"mp"})";
  ASSERT_TRUE(probe.send_line(bound_req));
  const auto bound_before = probe.read_line();
  ASSERT_TRUE(bound_before);

  // Flood distinct run requests (distinct seeds defeat coalescing) from
  // parallel connections so the one worker and one queue slot overflow.
  constexpr int kFlood = 8;
  std::vector<std::string> replies(kFlood);
  std::vector<std::thread> clients;
  for (int i = 0; i < kFlood; ++i) {
    clients.emplace_back([&, i] {
      TestClient c(server.port());
      if (!c.connected()) return;
      const auto reply = c.call(
          "{\"id\":1,\"op\":\"run\",\"adversary\":\"lockstep\",\"seed\":" +
          std::to_string(1000 + i) + "}", 30'000);
      if (reply) replies[static_cast<std::size_t>(i)] = reply_status(*reply);
    });
  }
  // Mid-flood, the cached bound cell must still serve byte-identically.
  std::this_thread::sleep_for(milliseconds(100));
  ASSERT_TRUE(probe.send_line(bound_req));
  const auto bound_during = probe.read_line();
  for (auto& t : clients) t.join();
  ASSERT_TRUE(bound_during);

  int ok = 0, overloaded = 0, other = 0;
  for (const std::string& status : replies) {
    if (status == "Ok") ++ok;
    else if (status == "Overloaded") ++overloaded;
    else ++other;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(overloaded, 0);  // past worker + queue, requests shed
  EXPECT_EQ(other, 0);       // every reply was structured, none dropped

  ASSERT_TRUE(probe.send_line(bound_req));
  const auto bound_after = probe.read_line();
  ASSERT_TRUE(bound_after);
  EXPECT_EQ(*bound_before, *bound_during);
  EXPECT_EQ(*bound_before, *bound_after);
  server.stop();
  EXPECT_GE(server.counters().overloaded.load(), overloaded);
}

TEST(ServerTest, IdenticalConcurrentRunsCoalesce) {
  ServerConfig config;
  config.admission.test_heavy_delay_ms = 300;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string req = R"({"id":1,"op":"run","adversary":"lockstep"})";
  std::vector<std::string> replies(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      TestClient c(server.port());
      if (!c.connected() || !c.send_line(req)) return;
      const auto reply = c.read_line(30'000);
      if (reply) replies[static_cast<std::size_t>(i)] = *reply;
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_FALSE(replies[0].empty());
  EXPECT_EQ(replies[0], replies[1]);
  EXPECT_EQ(replies[0], replies[2]);
  const auto doc = obs::parse_json(replies[0]);
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "Ok");
  server.stop();
  EXPECT_GE(server.counters().coalesced.load(), 1);
}

TEST(ServerTest, MalformedSocketFloodSurvives) {
  Server server(ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::mt19937_64 rng(0xbadf'00d5);
  for (int i = 0; i < 100; ++i) {
    std::string line;
    const std::size_t len = 1 + rng() % 120;
    for (std::size_t j = 0; j < len; ++j) {
      char c = static_cast<char>(rng() & 0xff);
      if (c == '\n') c = '?';  // keep one request per line
      line.push_back(c);
    }
    ASSERT_TRUE(client.send_line(line));
    const auto reply = client.read_line();
    ASSERT_TRUE(reply) << "connection died on garbage line " << i;
    const auto doc = obs::parse_json(*reply);
    ASSERT_TRUE(doc) << "unparseable reply: " << *reply;
    EXPECT_EQ(reply_status(*doc), "BadRequest");
  }
  // The server is still healthy afterwards.
  const auto doc = client.call(R"({"id":1,"op":"health"})");
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "Ok");
  server.stop();
}

TEST(ServerTest, OversizedLineIsShedAndDropped) {
  ServerConfig config;
  config.limits.max_line_bytes = 1024;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw(std::string(4096, 'a')));  // no newline ever
  const auto reply = client.read_line(5'000);
  ASSERT_TRUE(reply);  // a BadRequest notice precedes the drop
  const auto doc = obs::parse_json(*reply);
  ASSERT_TRUE(doc);
  EXPECT_EQ(reply_status(*doc), "BadRequest");
  EXPECT_FALSE(client.read_line(2'000));  // the connection is closed
  server.stop();
  EXPECT_GE(server.counters().connections_dropped.load(), 1);
}

TEST(ServerTest, SweepTicketLifecycleAndJournaledReport) {
  const fs::path dir = fresh_dir("sesp-serve-sweep");
  ServerConfig config;
  config.journal_dir = dir.string();
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string sweep_req =
      R"({"id":1,"op":"sweep","substrate":"mpm","model":"semisync","seed":1992})";
  const auto submitted = client.call(sweep_req);
  ASSERT_TRUE(submitted);
  ASSERT_EQ(reply_status(*submitted), "Ok");
  const auto* ticket = submitted->find("result")->find("ticket");
  ASSERT_NE(ticket, nullptr);
  const std::string ticket_hex = ticket->string;
  ASSERT_EQ(ticket_hex.size(), 16u);

  // Resubmitting the same sweep coalesces onto the same ticket.
  const auto again = client.call(sweep_req);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->find("result")->find("ticket")->string, ticket_hex);

  const auto report = wait_report(client, ticket_hex);
  ASSERT_TRUE(report);
  EXPECT_NE(report->find("algorithm:"), std::string::npos);
  EXPECT_NE(report->find("solved/degraded/diagnosed:"), std::string::npos);

  // The journal holds the request and the finished report.
  EXPECT_TRUE(fs::exists(dir / ("sweep-" + ticket_hex + ".journal")));

  // Polling after completion replays the identical rendered result.
  const auto poll_req = "{\"id\":7,\"op\":\"poll\",\"ticket\":\"" +
                        ticket_hex + "\"}";
  ASSERT_TRUE(client.send_line(poll_req));
  const auto poll1 = client.read_line();
  ASSERT_TRUE(client.send_line(poll_req));
  const auto poll2 = client.read_line();
  ASSERT_TRUE(poll1 && poll2);
  // ids match, so entire reply lines must be byte-identical
  EXPECT_EQ(*poll1, *poll2);

  server.stop();
  EXPECT_EQ(server.counters().sweeps_completed.load(), 1);
  EXPECT_EQ(server.counters().bad_request.load(), 0);
  EXPECT_FALSE(server.interrupted());
  fs::remove_all(dir);
}

TEST(ServerTest, ChaosInterruptThenResumeIsByteIdentical) {
  const std::string sweep_req =
      R"({"id":1,"op":"sweep","substrate":"mpm","model":"periodic","seed":41})";

  // Reference: the same sweep completed without interference.
  const fs::path ref_dir = fresh_dir("sesp-serve-ref");
  std::string reference;
  {
    ServerConfig config;
    config.journal_dir = ref_dir.string();
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const auto submitted = client.call(sweep_req);
    ASSERT_TRUE(submitted);
    const std::string ticket =
        submitted->find("result")->find("ticket")->string;
    const auto report = wait_report(client, ticket);
    ASSERT_TRUE(report);
    reference = *report;
    server.stop();
  }
  fs::remove_all(ref_dir);

  // Chaos: stop the sweep's supervisor after one journal append, which
  // drains the server exactly as a SIGTERM would.
  const fs::path dir = fresh_dir("sesp-serve-chaos");
  std::string ticket_hex;
  {
    ServerConfig config;
    config.journal_dir = dir.string();
    config.chaos_stop_after = 1;
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const auto submitted = client.call(sweep_req);
    ASSERT_TRUE(submitted);
    ticket_hex = submitted->find("result")->find("ticket")->string;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!server.draining() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(milliseconds(20));
    EXPECT_TRUE(server.draining());
    server.stop();
    EXPECT_TRUE(server.interrupted());  // the tool's exit-75 signal
    EXPECT_GE(server.counters().sweeps_interrupted.load(), 1);
  }

  // Resume: a fresh server re-enqueues the journaled sweep and finishes it;
  // the report must be byte-identical to the uninterrupted reference.
  {
    ServerConfig config;
    config.journal_dir = dir.string();
    config.resume = true;
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(server.resumed_sweeps(), 1);
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const auto report = wait_report(client, ticket_hex);
    ASSERT_TRUE(report);
    EXPECT_EQ(*report, reference);
    server.stop();
    EXPECT_EQ(server.counters().sweeps_completed.load(), 1);
    EXPECT_FALSE(server.interrupted());
  }
  fs::remove_all(dir);
}

// Instances whose exact times leave int64 (coprime denominators near 1e6,
// sesp_cli exits 2 on the same flags) get a BadRequest for bound, run and
// worst, and a failed sweep ticket; the connection keeps serving.
TEST(ServerTest, UnrepresentableInstanceIsBadRequestAndServerSurvives) {
  const fs::path dir = fresh_dir("sesp-serve-overflow");
  ServerConfig config;
  config.journal_dir = dir.string();
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string instance =
      R"("model":"sporadic","s":3,"n":3,"c1":"1/1000003","d1":"1/999983","d2":"1/999979"})";
  for (const std::string& request :
       {R"({"id":1,"op":"bound","side":"mp",)" + instance,
        R"({"id":2,"op":"run","adversary":"random",)" + instance,
        R"({"id":3,"op":"run","adversary":"worst",)" + instance}) {
    const auto doc = client.call(request, 30'000);
    ASSERT_TRUE(doc) << request;
    EXPECT_EQ(reply_status(*doc), "BadRequest") << request;
    EXPECT_NE(doc->find("error")->string.find("overflow"), std::string::npos)
        << request;
  }
  // A degradation sweep over periodic timing near 2^31 overflows inside
  // the supervised slots.
  const auto submitted = client.call(
      R"({"id":4,"op":"sweep","substrate":"mpm","model":"periodic","s":3,"n":3,"c1":"1/2147483647","c2":"1/2147483629","d2":"1/2147483579"})");
  ASSERT_TRUE(submitted);
  ASSERT_EQ(reply_status(*submitted), "Ok");
  const std::string ticket =
      submitted->find("result")->find("ticket")->string;
  std::string state;
  for (int i = 0; i < 600 && state != "failed" && state != "done"; ++i) {
    std::this_thread::sleep_for(milliseconds(50));
    const auto poll = client.call(
        R"({"id":5,"op":"poll","ticket":")" + ticket + R"("})");
    ASSERT_TRUE(poll);
    state = poll->find("result")->find("state")->string;
  }
  EXPECT_EQ(state, "failed");

  const auto health = client.call(R"({"id":6,"op":"health"})");
  ASSERT_TRUE(health);
  EXPECT_EQ(reply_status(*health), "Ok");
  server.stop();
  EXPECT_EQ(server.counters().bad_request.load(), 3);
  fs::remove_all(dir);
}

// A replay trace whose message names a deliver step past the end of the
// trace once took the server down with SIGSEGV. The message replays as
// never delivered: a plain mismatch, and the server keeps serving.
TEST(ServerTest, OutOfRangeReplayTraceIsAMismatchAndServerSurvives) {
  const fs::path dir = fresh_dir("sesp-serve-replay");
  ServerConfig config;
  config.journal_dir = dir.string();
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const auto replay = client.call(
      R"({"id":2,"op":"replay","model":"async","side":"mp","s":2,"n":2,"trace":"sesp-trace v1\nmeta,mpm,2,2\nstep,c,0,1,0,-1,-1,0,0,0\nmsg,0,1,0,4000000000,-,0,0,0\n"})",
      30'000);
  ASSERT_TRUE(replay);
  ASSERT_EQ(reply_status(*replay), "Ok");
  const auto* match = replay->find("result")->find("match");
  ASSERT_NE(match, nullptr);
  EXPECT_TRUE(match->is_bool());
  EXPECT_FALSE(match->boolean);

  const auto health = client.call(R"({"id":3,"op":"health"})");
  ASSERT_TRUE(health);
  EXPECT_EQ(reply_status(*health), "Ok");
  server.stop();
  fs::remove_all(dir);
}

// The startup scan of --resume reads every sweep journal in the directory.
// A frame length near SIZE_MAX once wrapped the loader's bounds check and
// aborted the server; a journal from an older build's multi-process mode
// holds "L" lease lines. The first is a torn tail, the second is skipped
// like any unreadable file, and the server comes up and keeps serving.
TEST(ServerTest, ResumeOverCraftedJournalsKeepsServing) {
  const fs::path dir = fresh_dir("sesp-serve-crafted");
  const std::string header =
      "sesp-journal/1 tool=sesp_serve config=0000000000000001\n";
  const std::string head = "S serve.request 0 ";
  const std::string tail = " 0123456789abcdef\n";
  const std::size_t payload_at =
      header.size() + head.size() + 20 + tail.size();
  {
    std::ofstream out(dir / "sweep-0000000000000001.journal",
                      std::ios::binary);
    out << header << head << std::to_string(SIZE_MAX - payload_at) << tail;
  }
  {
    std::ofstream out(dir / "sweep-0000000000000002.journal",
                      std::ios::binary);
    out << "sesp-journal/1 tool=sesp_serve config=0000000000000002\n"
           "L 0 mpm_degradation 0 1 1792399450145 claim f7a529967ced7708\n";
  }
  ServerConfig config;
  config.journal_dir = dir.string();
  config.resume = true;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.resumed_sweeps(), 0);
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const auto health = client.call(R"({"id":1,"op":"health"})");
  ASSERT_TRUE(health);
  EXPECT_EQ(reply_status(*health), "Ok");
  server.stop();
  EXPECT_FALSE(server.interrupted());
  fs::remove_all(dir);
}

TEST(ServerTest, DrainShedsComputeButAnswersHealth) {
  Server server(ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Make sure the server has accepted this connection before draining
  // closes the listener (connect() alone only reaches the backlog).
  ASSERT_TRUE(client.call(R"({"id":0,"op":"health"})"));
  server.request_drain();
  const auto health = client.call(R"({"id":1,"op":"health"})");
  ASSERT_TRUE(health);
  EXPECT_EQ(reply_status(*health), "Ok");
  const auto run = client.call(R"({"id":2,"op":"run","adversary":"lockstep"})");
  ASSERT_TRUE(run);
  EXPECT_EQ(reply_status(*run), "Overloaded");
  server.stop();
}

// Three full start → traffic → drain → stop cycles must return every file
// descriptor: listener, wake pipe, and every accepted connection.
TEST(ServerTest, DrainRestartCyclesDoNotLeakFds) {
  const auto count_fds = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator("/proc/self/fd"))
      ++n;
    return n;
  };

  const auto run_cycle = [] {
    Server server(ServerConfig{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.call(R"({"id":1,"op":"health"})"));
    ASSERT_TRUE(client.call(
        R"({"id":2,"op":"bound","model":"semisync","side":"mp"})"));
    ASSERT_TRUE(client.call(R"({"id":3,"op":"run","adversary":"lockstep"})"));
    server.request_drain();
    server.stop();
  };

  run_cycle();  // absorb any one-time lazy initialization
  const std::size_t baseline = count_fds();
  for (int i = 0; i < 3; ++i) run_cycle();
  EXPECT_EQ(count_fds(), baseline);
}

TEST(ServerTest, StatsExposeCountersAndQueues) {
  Server server(ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.call(R"({"id":1,"op":"health"})"));
  const auto doc = client.call(R"({"id":2,"op":"stats"})");
  ASSERT_TRUE(doc);
  ASSERT_EQ(reply_status(*doc), "Ok");
  const auto* result = doc->find("result");
  ASSERT_NE(result, nullptr);
  const auto* schema = result->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, kProtocolSchema);
  ASSERT_NE(result->find("counters"), nullptr);
  ASSERT_NE(result->find("cache"), nullptr);
  ASSERT_NE(result->find("connections"), nullptr);
  ASSERT_NE(result->find("queues"), nullptr);
  EXPECT_GE(result->find("counters")->find("requests")->number, 2.0);
  server.stop();
}

}  // namespace
}  // namespace sesp::serve
