#include "smm/tree_network.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace sesp {

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "sesp::TreeNetwork fatal: %s\n", what);
  std::abort();
}

// One level of the construction. Node k < n is leaf k and node n + r is
// relay r. The leaves are one run of nodes; every later level is the run of
// relays just built, in order, then at most one endpoint promoted from the
// level below. So a level is a node range plus an optional tail, and the
// construction loop needs no storage of its own.
struct Level {
  std::int32_t first;      // first node of the run
  std::int32_t count;      // nodes in the run
  std::int32_t tail = -1;  // promoted node after the run, or -1

  std::int32_t size() const { return count + (tail >= 0 ? 1 : 0); }
  std::int32_t node(std::int32_t i) const {
    return i < count ? first + i : tail;
  }
};

// The construction loop, shared by the constructor and shape(): groups each
// level under new relays until one node is left. For every variable, in
// creation order, calls on_var(depth, relay, offset, level, first, last):
// the variable joins relay `relay` and the nodes level.node(first..last-1),
// which start `offset` places into that relay's children.
template <typename OnVar>
TreeShape build(std::int32_t n, std::int32_t b, OnVar&& on_var) {
  if (n < 1) fail("need at least one leaf");
  TreeShape shape;
  if (n == 1) return shape;  // a single port process needs no communication
  if (b < 2) fail("communication requires b >= 2");

  // Children per parent node and children per shared variable.
  const std::int32_t arity = std::max<std::int32_t>(2, b - 1);
  const std::int32_t group = b - 1;  // children sharing one variable

  Level level{0, n};
  while (level.size() > 1) {
    ++shape.depth;
    // Every relay later shares one more variable with its parent, except the
    // root: the one relay of a level that fits under a single parent.
    const std::int32_t parent_vars = level.size() <= arity ? 0 : 1;
    Level next{n + shape.num_relays, 0};
    for (std::int32_t at = 0; at < level.size(); at += arity) {
      const std::int32_t end = std::min(level.size(), at + arity);
      // A lone trailing endpoint would make a useless unary relay chain;
      // promote it directly to the next level instead.
      if (end - at == 1 && next.count > 0) {
        next.tail = level.node(at);
        break;
      }
      const std::int32_t relay = shape.num_relays++;
      std::int32_t vars = 0;
      for (std::int32_t g = at; g < end; g += group, ++vars)
        on_var(shape.depth, relay, g - at, level, g, std::min(end, g + group));
      ++next.count;
      shape.max_cycle = std::max(shape.max_cycle, vars + parent_vars);
    }
    level = next;
  }
  return shape;
}

}  // namespace

TreeShape TreeNetwork::shape(std::int32_t n, std::int32_t b) {
  return build(n, b, [](auto&&...) {});
}

TreeNetwork::TreeNetwork(std::int32_t n, std::int32_t b, SharedMemory& mem,
                         ProcessId first_relay_pid)
    : n_(n), uplinks_(static_cast<std::size_t>(std::max(n, 0)), kNoVar) {
  const auto pid_of = [&](std::int32_t node) {
    return node < n ? node : first_relay_pid + (node - n);
  };
  shape_ = build(n, b, [&](std::int32_t depth, std::int32_t relay,
                           std::int32_t offset, const Level& level,
                           std::int32_t first, std::int32_t last) {
    const ProcessId relay_pid = first_relay_pid + relay;
    if (relay == static_cast<std::int32_t>(relays_.size()))
      relays_.push_back(RelaySpec{relay_pid, {}});
    std::vector<ProcessId> accessors{relay_pid};
    for (std::int32_t c = first; c < last; ++c)
      accessors.push_back(pid_of(level.node(c)));
    const VarId var = mem.create_var(
        accessors, "tree:d" + std::to_string(depth) + ":r" +
                       std::to_string(relay_pid) + ":g" +
                       std::to_string(offset));
    relays_[static_cast<std::size_t>(relay)].rotation.push_back(var);
    for (std::int32_t c = first; c < last; ++c) {
      const std::int32_t child = level.node(c);
      if (child < n) {
        uplinks_[static_cast<std::size_t>(child)] = var;
      } else {
        relays_[static_cast<std::size_t>(child - n)].rotation.push_back(var);
      }
    }
  });
}

VarId TreeNetwork::uplink(ProcessId leaf) const {
  if (leaf < 0 || leaf >= n_) fail("uplink of non-leaf");
  return uplinks_[static_cast<std::size_t>(leaf)];
}

}  // namespace sesp
