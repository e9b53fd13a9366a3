// sesp_client — line-protocol client for sesp_serve (docs/serving.md).
//
// Sends sesp-serve/1 request lines (from --send flags, or stdin when none)
// to a local server and prints one reply line per request. Conveniences for
// scripts and tests:
//
//   --send=LINE        queue one request line (repeatable, sent in order)
//   --flood=N          send the (single) --send line N times, pipelined
//   --summary          print "Ok=… BadRequest=… Overloaded=… Timeout=…"
//                      instead of the raw reply lines
//   --print-field=P    print the dotted-path field of each reply instead of
//                      the whole line (e.g. result.ticket, result.state)
//   --wait-ticket=HEX  poll the sweep ticket until done/interrupted
//   --report           with --wait-ticket: print the report text verbatim
//                      (byte-comparable with sesp_cli --degradation output)
//
// Exit: 0 on success, 2 usage, 3 interrupted ticket, 4 connect/timeout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.hpp"
#include "obs/json.hpp"

namespace {

using sesp::flag_value;

struct Options {
  std::uint16_t port = 0;
  std::vector<std::string> sends;
  std::int64_t flood = 0;
  bool summary = false;
  std::string print_field;
  std::string wait_ticket;
  bool report = false;
  std::int64_t timeout_ms = 30'000;
};

void usage(std::ostream& os) {
  os << "usage: sesp_client --port=N [--send=LINE]... [--flood=N]\n"
        "                   [--summary] [--print-field=PATH]\n"
        "                   [--wait-ticket=HEX] [--report] [--timeout-ms=N]\n";
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--port")
      opt.port = flag_value<std::uint16_t>(key, value);
    else if (key == "--send") opt.sends.push_back(value);
    else if (key == "--flood")
      opt.flood = flag_value<std::int64_t>(key, value);
    else if (key == "--summary") opt.summary = true;
    else if (key == "--print-field") opt.print_field = value;
    else if (key == "--wait-ticket") opt.wait_ticket = value;
    else if (key == "--report") opt.report = true;
    else if (key == "--timeout-ms")
      opt.timeout_ms = flag_value<std::int64_t>(key, value);
    else if (key == "--help" || key == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << key << "\n";
      return std::nullopt;
    }
  }
  if (opt.port == 0) {
    std::cerr << "--port is required\n";
    return std::nullopt;
  }
  if (opt.flood > 0 && opt.sends.size() != 1) {
    std::cerr << "--flood needs exactly one --send line\n";
    return std::nullopt;
  }
  return opt;
}

// A blocking line-framed connection with an overall deadline.
class Connection {
 public:
  bool open(std::uint16_t port, std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *error = std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      *error = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

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

  // One reply line (without newline) within `timeout_ms`; nullopt on
  // timeout or a closed connection.
  std::optional<std::string> read_line(std::int64_t timeout_ms) {
    using clock = std::chrono::steady_clock;
    const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto now = clock::now();
      if (now >= deadline) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      pollfd p{fd_, POLLIN, 0};
      const int pr =
          ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left, 200)));
      if (pr < 0 && errno != EINTR) return std::nullopt;
      if (pr <= 0) continue;
      char chunk[4096];
      const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
      if (k == 0) return std::nullopt;
      if (k < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return std::nullopt;
      }
      buffer_.append(chunk, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Dotted-path lookup ("result.ticket") into a parsed reply.
const sesp::obs::JsonValue* find_path(const sesp::obs::JsonValue& doc,
                                      const std::string& path) {
  const sesp::obs::JsonValue* v = &doc;
  std::size_t at = 0;
  while (at <= path.size()) {
    const std::size_t dot = path.find('.', at);
    const std::string part = path.substr(
        at, dot == std::string::npos ? std::string::npos : dot - at);
    v = v->find(part);
    if (v == nullptr) return nullptr;
    if (dot == std::string::npos) break;
    at = dot + 1;
  }
  return v;
}

void print_value(const sesp::obs::JsonValue& v) {
  if (v.is_string()) {
    std::cout << v.string << "\n";
    return;
  }
  sesp::obs::JsonWriter w(std::cout);
  sesp::obs::write_json_value(w, v);
  std::cout << "\n";
}

int wait_for_ticket(Connection& conn, const Options& opt) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::milliseconds(opt.timeout_ms);
  std::int64_t id = 1'000'000;
  while (clock::now() < deadline) {
    std::ostringstream req;
    req << "{\"id\":" << id++ << ",\"op\":\"poll\",\"ticket\":\""
        << opt.wait_ticket << "\"}";
    if (!conn.send_line(req.str())) return 4;
    const auto reply = conn.read_line(opt.timeout_ms);
    if (!reply) return 4;
    const auto doc = sesp::obs::parse_json(*reply);
    if (!doc) return 4;
    const auto* status = doc->find("status");
    if (status == nullptr || !status->is_string()) return 4;
    if (status->string != "Ok") {
      std::cerr << *reply << "\n";
      return status->string == "BadRequest" ? 2 : 4;
    }
    const auto* state = find_path(*doc, "result.state");
    if (state != nullptr && state->is_string()) {
      if (state->string == "done") {
        const auto* report = find_path(*doc, "result.report");
        if (opt.report && report != nullptr && report->is_string())
          std::cout << report->string;  // verbatim, already newline-framed
        else
          std::cout << *reply << "\n";
        return 0;
      }
      if (state->string == "interrupted") {
        std::cout << *reply << "\n";
        return 3;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "sesp_client: ticket wait timed out\n";
  return 4;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (!opt) {
    usage(std::cerr);
    return 2;
  }
  Connection conn;
  std::string error;
  if (!conn.open(opt->port, &error)) {
    std::cerr << "sesp_client: connect: " << error << "\n";
    return 4;
  }

  if (!opt->wait_ticket.empty()) return wait_for_ticket(conn, *opt);

  std::vector<std::string> lines = opt->sends;
  if (opt->flood > 0) {
    lines.assign(static_cast<std::size_t>(opt->flood), opt->sends.front());
  } else if (lines.empty()) {
    std::string line;
    while (std::getline(std::cin, line))
      if (!line.empty()) lines.push_back(line);
  }

  // Pipelined: write everything, then read one reply per request (the
  // protocol guarantees ordered replies).
  for (const std::string& line : lines) {
    if (!conn.send_line(line)) {
      std::cerr << "sesp_client: send failed\n";
      return 4;
    }
  }
  std::map<std::string, std::int64_t> by_status;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto reply = conn.read_line(opt->timeout_ms);
    if (!reply) {
      // A dropped connection mid-flood is a server-side shed; report what
      // was counted so far rather than failing silently.
      std::cerr << "sesp_client: connection closed after " << i
                << " replies\n";
      if (!opt->summary) return 4;
      by_status["Dropped"] = static_cast<std::int64_t>(lines.size() - i);
      break;
    }
    const auto doc = sesp::obs::parse_json(*reply);
    if (doc) {
      const auto* status = doc->find("status");
      ++by_status[status != nullptr && status->is_string() ? status->string
                                                           : "Malformed"];
    } else {
      ++by_status["Malformed"];
    }
    if (opt->summary) continue;
    if (!opt->print_field.empty()) {
      if (doc) {
        const auto* v = find_path(*doc, opt->print_field);
        if (v != nullptr) {
          print_value(*v);
          continue;
        }
      }
      std::cout << "\n";
    } else {
      std::cout << *reply << "\n";
    }
  }
  if (opt->summary) {
    std::ostringstream os;
    const char* keys[] = {"Ok", "BadRequest", "Overloaded", "Timeout"};
    bool first = true;
    for (const char* k : keys) {
      os << (first ? "" : " ") << k << "=" << by_status[k];
      first = false;
    }
    for (const auto& [k, v] : by_status) {
      bool canonical = false;
      for (const char* c : keys) canonical = canonical || k == c;
      if (!canonical) os << " " << k << "=" << v;
    }
    std::cout << os.str() << "\n";
  }
  return 0;
}
