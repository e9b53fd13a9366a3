#pragma once

// Shared-variable values for the SMM. The paper puts no bound on variable
// size (Section 2.1.1), and every algorithm here only ever communicates
// monotone per-process facts ("p has taken k port steps / reached session v
// / is done"). A Knowledge value is therefore a map from process id to the
// pointwise maximum of those facts; merging is a commutative, idempotent
// join, which is what makes the tree-relay gossip of Section 3 correct
// regardless of interleaving.
//
// Representation (docs/performance.md "Data layout"): a flat vector of
// (process, fact) entries kept sorted by process id — no per-node heap
// allocation. Process counts are tiny (ports + relays), so lookups are a
// short contiguous scan, merging is a linear two-pointer join, and copying
// a value (the P2P simulator copies one per in-flight message) is a single
// buffer copy. Iteration order is ascending process id — exactly the order
// the previous std::map representation produced — so digest() and
// to_string() are byte-stable across the layout change; the golden corpus
// pins this.

#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.hpp"

namespace sesp {

struct PortInfo {
  std::int64_t steps = 0;    // port steps taken
  std::int64_t session = 0;  // session counter value reached
  bool done = false;         // algorithm-specific completion flag

  friend bool operator==(const PortInfo&, const PortInfo&) = default;
};

// Pointwise maximum of two facts about the same process.
PortInfo join(const PortInfo& a, const PortInfo& b);

class Knowledge {
 public:
  Knowledge() = default;

  bool empty() const noexcept { return facts_.empty(); }
  std::size_t size() const noexcept { return facts_.size(); }

  // The recorded fact about p, or a default PortInfo if none.
  PortInfo about(ProcessId p) const;
  bool has(ProcessId p) const { return find(p) != nullptr; }

  // Joins `info` into the fact recorded about p.
  void record(ProcessId p, const PortInfo& info);

  // Joins every fact of `other` into this value.
  void merge(const Knowledge& other);

  // a.merge(b); b.merge(a): leaves both holding the join of the two. When
  // both hold the same ids (the relay gossip's steady state) the join is one
  // pass over the pair; otherwise it is the two merges.
  static void exchange(Knowledge& a, Knowledge& b);

  // True iff a fact with steps >= threshold is recorded for every process in
  // [0, n) except `except` (pass kNetworkProcess for "no exception").
  bool all_have_steps(std::int32_t n, std::int64_t threshold,
                      ProcessId except = kNetworkProcess) const;
  bool all_have_session(std::int32_t n, std::int64_t threshold,
                        ProcessId except = kNetworkProcess) const;
  bool all_done(std::int32_t n, ProcessId except = kNetworkProcess) const;

  // Deterministic digest (FNV-1a over the sorted entries); used to compare
  // variable values across reordered computations in the lower-bound
  // machinery. Memoized: record() and merge() only invalidate the cache
  // when they actually change a fact, so the simulators' before/after
  // digests of a saturated variable are O(1) (docs/performance.md).
  std::uint64_t digest() const;

  // Content stamp: equal stamps imply equal contents. Every mutation that
  // changes a fact restamps with a fresh thread-unique nonzero value;
  // copies carry the stamp with the content; stamp 0 is exactly the empty
  // value. A caller that remembers the stamps of two values after joining
  // them can prove a later join of the same (unchanged) pair is a no-op
  // and skip it — the SMM relay gossip loop does this once its subtree
  // saturates, and the port algorithms for an uplink snapshot they have
  // already merged (docs/performance.md "Incremental SMM knowledge").
  std::uint64_t stamp() const noexcept { return stamp_; }
  // A stamp no value carries, for "nothing remembered yet".
  static constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};

  std::string to_string() const;

  friend bool operator==(const Knowledge& a, const Knowledge& b) {
    return a.facts_ == b.facts_;
  }

 private:
  struct Entry {
    ProcessId process;
    PortInfo info;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  const Entry* find(ProcessId p) const noexcept;

  // Fresh thread-unique nonzero stamp (see stamp()).
  static std::uint64_t next_stamp() noexcept {
    thread_local std::uint64_t counter = 0;
    return ++counter;
  }
  void touch() noexcept {
    stamp_ = next_stamp();
    digest_valid_ = false;
  }
  // Takes the stamp and digest cache of `other`, whose contents this value
  // now equals.
  void adopt_stamp(const Knowledge& other) noexcept {
    stamp_ = other.stamp_;
    cached_digest_ = other.cached_digest_;
    digest_valid_ = other.digest_valid_;
  }

  // Sorted by process id, unique. Sortedness makes default equality
  // coincide with map equality.
  std::vector<Entry> facts_;
  std::uint64_t stamp_ = 0;
  mutable std::uint64_t cached_digest_ = 0;
  mutable bool digest_valid_ = false;
};

}  // namespace sesp
