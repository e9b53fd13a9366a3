#include "recovery/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sesp::recovery {

namespace {

constexpr char kSchema[] = "sesp-journal/1";

bool fsync_enabled_from_env() {
  const char* env = std::getenv("SESP_JOURNAL_FSYNC");
  return !(env && env[0] == '0' && env[1] == '\0');
}

// Writes the whole buffer, riding out short writes and EINTR.
bool write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string frame_record(const std::string& stage, std::uint64_t slot,
                         const std::string& payload) {
  std::ostringstream os;
  os << "S " << stage << ' ' << slot << ' ' << payload.size() << ' '
     << fnv1a_hex(fnv1a(payload)) << '\n'
     << payload << "\n.\n";
  return os.str();
}

bool parse_hex16(const std::string& hex, std::uint64_t* out) {
  return util::parse_fnv1a_hex(hex, out);
}

// Parses the journal header line (without trailing newline); false + *error
// on a schema/field mismatch.
bool parse_journal_header(std::string_view line, std::string* tool,
                          std::uint64_t* config_digest, std::string* error) {
  std::istringstream hs{std::string(line)};
  std::string schema, tool_kv, config_kv;
  hs >> schema >> tool_kv >> config_kv;
  if (schema != kSchema || tool_kv.rfind("tool=", 0) != 0 ||
      config_kv.rfind("config=", 0) != 0) {
    if (error) *error = std::string("bad journal header (want ") + kSchema + ")";
    return false;
  }
  std::uint64_t digest = 0;
  if (!parse_hex16(config_kv.substr(7), &digest)) {
    if (error) *error = "bad config digest in header";
    return false;
  }
  if (tool) *tool = tool_kv.substr(5);
  if (config_digest) *config_digest = digest;
  return true;
}

// Consumes verified frames from text[at..), appending to *records, and
// returns the offset of the first unconsumed byte — text.size() unless the
// file ends in a torn tail. A complete "L" line (a lease event of an older
// build's multi-process mode) is not a tear: it sets *lease_line and stops.
std::size_t parse_journal_frames(std::string_view text, std::size_t at,
                                 std::vector<JournalRecord>* records,
                                 bool* lease_line) {
  *lease_line = false;
  while (at < text.size()) {
    const std::size_t line_end = text.find('\n', at);
    if (line_end == std::string_view::npos) break;  // incomplete frame line
    std::istringstream fs{std::string(text.substr(at, line_end - at))};
    std::string marker;
    fs >> marker;
    if (marker == "L") {
      *lease_line = true;
      break;
    }
    if (marker != "S") break;  // unknown marker — untrusted from here on
    std::string stage, checksum;
    std::uint64_t slot = 0;
    std::size_t size = 0;
    fs >> stage >> slot >> size >> checksum;
    if (stage.empty() || !fs || checksum.size() != 16) break;
    const std::size_t payload_at = line_end + 1;
    // Frame tail: payload bytes, '\n', ".\n". Compared against what is
    // left of the file without adding to `size`, which may be anything a
    // damaged or crafted file holds.
    const std::size_t left = text.size() - payload_at;
    if (size > left || left - size < 3) break;
    const std::string_view payload = text.substr(payload_at, size);
    if (text.compare(payload_at + size, 3, "\n.\n") != 0 ||
        fnv1a_hex(fnv1a(payload)) != checksum) {
      break;
    }
    records->push_back({stage, slot, std::string(payload)});
    at = payload_at + size + 3;
  }
  return at;
}

// read_journal_snapshot() plus the byte length of the verified prefix,
// which open_resume() truncates a torn file to.
JournalSnapshot load_snapshot(const std::string& path,
                              std::size_t* verified_bytes) {
  JournalSnapshot snap;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    snap.error = "cannot open " + path;
    return snap;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::size_t at = text.find('\n');
  if (at == std::string::npos) {
    snap.error = path + ": missing journal header";
    return snap;
  }
  std::string header_error;
  if (!parse_journal_header(std::string_view(text).substr(0, at), &snap.tool,
                            &snap.config_digest, &header_error)) {
    snap.error = path + ": " + header_error;
    return snap;
  }
  ++at;

  bool lease_line = false;
  const std::size_t end =
      parse_journal_frames(text, at, &snap.records, &lease_line);
  if (lease_line) {
    snap.records.clear();
    snap.error = path +
                 ": shard lease frame (written by a sharded run; not "
                 "resumable)";
    return snap;
  }
  snap.dropped = end < text.size() ? 1 : 0;
  *verified_bytes = end;
  snap.ok = true;
  return snap;
}

}  // namespace

JournalSnapshot read_journal_snapshot(const std::string& path) {
  std::size_t verified_bytes = 0;
  return load_snapshot(path, &verified_bytes);
}

std::unique_ptr<RunJournal> RunJournal::create(const std::string& path,
                                               const std::string& tool,
                                               std::uint64_t config_digest,
                                               std::string* error) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) {
    if (error) *error = "cannot create " + path;
    return nullptr;
  }
  std::unique_ptr<RunJournal> j(new RunJournal);
  j->path_ = path;
  j->tool_ = tool;
  j->config_digest_ = config_digest;
  j->fd_ = fd;
  j->fsync_ = fsync_enabled_from_env();
  std::ostringstream header;
  header << kSchema << " tool=" << tool
         << " config=" << fnv1a_hex(config_digest) << '\n';
  if (!write_all(fd, header.str())) {
    if (error) *error = "cannot write journal header to " + path;
    return nullptr;
  }
  if (j->fsync_) ::fsync(fd);
  return j;
}

std::unique_ptr<RunJournal> RunJournal::open_resume(const std::string& path,
                                                    std::string* error) {
  std::size_t verified_bytes = 0;
  JournalSnapshot snap = load_snapshot(path, &verified_bytes);
  if (!snap.ok) {
    if (error) *error = snap.error;
    return nullptr;
  }

  std::unique_ptr<RunJournal> j(new RunJournal);
  j->path_ = path;
  j->fsync_ = fsync_enabled_from_env();
  j->tool_ = std::move(snap.tool);
  j->config_digest_ = snap.config_digest;
  j->dropped_ = snap.dropped;
  for (JournalRecord& r : snap.records)
    j->completed_[{std::move(r.stage), r.slot}] = std::move(r.payload);

  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    if (error) *error = "cannot reopen " + path + " for appending";
    return nullptr;
  }
  j->fd_ = fd;
  // Appending after a torn tail would leave every new record behind the
  // tear, where the next load stops; cut the tail off first. An intact
  // journal costs nothing extra here.
  if (snap.dropped > 0) {
    if (::ftruncate(fd, static_cast<off_t>(verified_bytes)) != 0) {
      if (error) *error = "cannot truncate the torn tail of " + path;
      return nullptr;
    }
    if (j->fsync_) ::fsync(fd);
  }
  return j;
}

RunJournal::~RunJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool RunJournal::append(const std::string& stage, std::uint64_t slot,
                        const std::string& payload) {
  const std::string frame = frame_record(stage, slot, payload);
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return false;
  if (!write_all(fd_, frame)) return false;
  if (fsync_) ::fsync(fd_);
  completed_[{stage, slot}] = payload;
  return true;
}

const std::string* RunJournal::lookup(const std::string& stage,
                                      std::uint64_t slot) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = completed_.find({stage, slot});
  return it == completed_.end() ? nullptr : &it->second;
}

std::int64_t RunJournal::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(completed_.size());
}

}  // namespace sesp::recovery
