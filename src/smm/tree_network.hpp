#pragma once

// The Section-3 broadcast substrate for the SMM: a tree of relay processes
// and shared variables with the n port processes at the leaves, propagating
// a piece of information from any process to all others in O(log_b n) steps.
//
// Topology. For b >= 3 each internal node shares one "family" variable with
// its <= b-1 children (b accessors total), so a parent gathers its whole
// family in one step and the tree has arity b-1. For b == 2 a variable can
// only join two processes, so each parent-child edge gets its own variable
// and the tree is binary; a parent cycles through its two child variables
// and its parent variable.
//
// Gossip. Every relay keeps an accumulated Knowledge value and, on each
// step, read-modify-writes the next variable in its rotation, merging both
// ways. Because Knowledge merge is a commutative idempotent join, the
// propagation works under any admissible interleaving; only its *latency*
// depends on the schedule, and `latency_steps_bound()` gives the documented
// worst-case constant used in the reproduced upper-bound formulas.

#include <cstdint>
#include <vector>

#include "model/ids.hpp"
#include "smm/shared_memory.hpp"

namespace sesp {

struct RelaySpec {
  ProcessId pid = 0;
  // Variables this relay cycles through, one per step: child-side variables
  // first, then (except for the root) the variable shared with its parent.
  std::vector<VarId> rotation;
};

// The numbers of a tree that do not depend on its variables.
struct TreeShape {
  std::int32_t depth = 0;  // tree height in relay levels (0 when n == 1)
  std::int32_t num_relays = 0;
  std::int32_t max_cycle = 1;  // longest relay rotation

  // Worst-case number of *step periods* for a fact merged into any leaf's
  // uplink variable to become visible in every other leaf's uplink variable,
  // assuming every relay takes steps continuously. Per level a fact waits at
  // most one full rotation for the relay to read it and one more to write it
  // onward; it crosses <= 2*depth levels (up then down). The +2 covers the
  // boundary accesses. This is this implementation's concrete constant
  // behind the paper's O(log_b n).
  std::int64_t latency_steps_bound() const noexcept {
    return 4LL * depth * max_cycle + 2;
  }
};

class TreeNetwork {
 public:
  // Builds the tree over port processes 0..n-1 in `mem`; relay processes get
  // ids first_relay_pid, first_relay_pid+1, ... Requires b >= 2 for n >= 2.
  TreeNetwork(std::int32_t n, std::int32_t b, SharedMemory& mem,
              ProcessId first_relay_pid);

  // The shape the constructor builds for (n, b), by the same construction
  // loop but without a SharedMemory: allocates nothing.
  static TreeShape shape(std::int32_t n, std::int32_t b);

  std::int32_t num_leaves() const noexcept { return n_; }
  std::int32_t num_relays() const noexcept { return shape_.num_relays; }
  const std::vector<RelaySpec>& relays() const noexcept { return relays_; }

  // The variable leaf p uses for all its tree accesses (its parent's
  // child-side variable). kNoVar when n == 1 (no tree needed).
  VarId uplink(ProcessId leaf) const;

  // Tree height in relay levels (0 when n == 1).
  std::int32_t depth() const noexcept { return shape_.depth; }
  // Longest relay rotation (steps for a relay to revisit a variable).
  std::int32_t max_cycle_len() const noexcept { return shape_.max_cycle; }

  // See TreeShape::latency_steps_bound().
  std::int64_t latency_steps_bound() const noexcept {
    return shape_.latency_steps_bound();
  }

 private:
  std::int32_t n_;
  TreeShape shape_;
  std::vector<RelaySpec> relays_;
  std::vector<VarId> uplinks_;
};

}  // namespace sesp
