#pragma once

// Crash-consistent run journal (docs/robustness.md): an append-only,
// fsync'd, schema-versioned record stream keyed by (stage, slot) — the slot
// index is exactly the index exec::parallel_for_each hands each sweep task,
// so a journal written at --jobs=8 resumes bit-identically at --jobs=1.
//
// File layout (text-framed so a partial record is detectable by eye and by
// the loader):
//
//   sesp-journal/1 tool=<name> config=<hex16>
//   S <stage> <slot> <payload-bytes> <fnv1a-hex16>
//   <payload bytes>
//   .
//   S ...
//
// Each record is written with one write(2) and (by default) one fsync(2),
// so after a crash the file is a valid prefix plus at most one torn tail
// record; open_resume() keeps every record whose frame and checksum verify,
// truncates the file to that verified prefix, and appends after it. Appends
// from sweep workers are serialized by a mutex — journal writes are rare
// (one per completed slot) next to the slot's own simulation work.
//
// Older builds also wrote "L" lease lines (a multi-process execution mode
// that no longer exists). A journal holding one is rejected with a load
// error rather than resumed: its slot records are split across several
// such files, so no single one replays a whole sweep.
//
// SESP_JOURNAL_FSYNC=0 disables the per-record fsync (tests, tmpfs).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/digest.hpp"

namespace sesp::recovery {

// The journal's digest is the shared util/digest FNV-1a (one definition for
// the journal guard and the serve cache keys); these aliases keep the
// historical recovery:: spelling the call sites use.
inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t h = util::kFnv1aOffsetBasis) noexcept {
  return util::fnv1a(text, h);
}
inline std::string fnv1a_hex(std::uint64_t h) { return util::fnv1a_hex(h); }

// One completed-slot record, in file order (read_journal_snapshot).
struct JournalRecord {
  std::string stage;
  std::uint64_t slot = 0;
  std::string payload;
};

// Read-only parse of a whole journal file — what --journal-inspect and the
// serve startup scan share with open_resume(). `records` are in file
// order; `dropped` counts the torn tail (0 or 1 — everything after the
// first unverifiable frame is untrusted).
struct JournalSnapshot {
  bool ok = false;
  std::string error;
  std::string tool;
  std::uint64_t config_digest = 0;
  std::vector<JournalRecord> records;
  std::int64_t dropped = 0;
};

JournalSnapshot read_journal_snapshot(const std::string& path);

class RunJournal {
 public:
  // Creates (truncates) `path` and writes the header. Returns nullptr and
  // fills *error when the file cannot be opened.
  static std::unique_ptr<RunJournal> create(const std::string& path,
                                            const std::string& tool,
                                            std::uint64_t config_digest,
                                            std::string* error);

  // Opens an existing journal for resumption: loads every intact record,
  // drops a torn tail (counted in dropped_on_load()) by truncating the file
  // to its verified prefix, and reopens the file for appending. Returns
  // nullptr on a missing file, a corrupt header or a lease line.
  static std::unique_ptr<RunJournal> open_resume(const std::string& path,
                                                 std::string* error);

  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  const std::string& path() const noexcept { return path_; }
  const std::string& tool() const noexcept { return tool_; }
  std::uint64_t config_digest() const noexcept { return config_digest_; }

  // Guard against resuming under a different tool or configuration — a
  // journal replayed into the wrong sweep would silently corrupt results.
  bool matches(const std::string& tool,
               std::uint64_t config_digest) const noexcept {
    return tool_ == tool && config_digest_ == config_digest;
  }

  // Appends one completed-slot record (thread-safe; fsyncs unless disabled).
  // Returns false on a write error — the caller degrades to journal-less
  // execution, never aborts.
  bool append(const std::string& stage, std::uint64_t slot,
              const std::string& payload);

  // Payload of a previously completed slot, or nullptr. Stable until the
  // journal is destroyed.
  const std::string* lookup(const std::string& stage,
                            std::uint64_t slot) const;

  std::int64_t records() const;
  std::int64_t dropped_on_load() const noexcept { return dropped_; }
  void set_fsync(bool on) noexcept { fsync_ = on; }

 private:
  RunJournal() = default;

  std::string path_;
  std::string tool_;
  std::uint64_t config_digest_ = 0;
  int fd_ = -1;
  bool fsync_ = true;
  std::int64_t dropped_ = 0;

  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::uint64_t>, std::string> completed_;
};

}  // namespace sesp::recovery
