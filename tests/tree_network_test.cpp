#include "smm/tree_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/bounds.hpp"

namespace sesp {
namespace {

TEST(TreeNetworkTest, SingleLeafNeedsNoTree) {
  SharedMemory mem(2);
  TreeNetwork tree(1, 2, mem, 1);
  EXPECT_EQ(tree.num_relays(), 0);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_EQ(tree.uplink(0), kNoVar);
}

TEST(TreeNetworkTest, TwoLeavesOneRelay) {
  SharedMemory mem(3);
  TreeNetwork tree(2, 3, mem, 2);
  EXPECT_EQ(tree.num_relays(), 1);
  EXPECT_EQ(tree.depth(), 1);
  // Both leaves share the relay's single family variable.
  EXPECT_EQ(tree.uplink(0), tree.uplink(1));
  EXPECT_EQ(tree.relays()[0].rotation.size(), 1u);
}

TEST(TreeNetworkTest, BinaryCaseUsesEdgeVariables) {
  SharedMemory mem(2);
  TreeNetwork tree(2, 2, mem, 2);
  EXPECT_EQ(tree.num_relays(), 1);
  // b == 2: one variable per child edge.
  EXPECT_NE(tree.uplink(0), tree.uplink(1));
  EXPECT_EQ(tree.relays()[0].rotation.size(), 2u);
}

// Structural invariants across a parameter sweep of (n, b).
class TreeNetworkSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeNetworkSweep, StructuralInvariants) {
  const auto [n, b] = GetParam();
  SharedMemory mem(b);
  TreeNetwork tree(n, b, mem, n);

  // Every leaf has an uplink (n >= 2).
  for (ProcessId p = 0; p < n; ++p) {
    const VarId v = tree.uplink(p);
    ASSERT_NE(v, kNoVar);
    // The leaf is a registered accessor of its uplink.
    const auto& acc = mem.accessors(v);
    EXPECT_NE(std::find(acc.begin(), acc.end(), p), acc.end());
    // The b-bound holds (SharedMemory enforces it on creation; re-check).
    EXPECT_LE(static_cast<int>(acc.size()), b);
  }

  // Relay pids are n..n+R-1 and each relay's rotation is non-empty; each
  // relay is an accessor of every variable in its rotation.
  std::set<ProcessId> pids;
  for (const RelaySpec& r : tree.relays()) {
    EXPECT_GE(r.pid, n);
    EXPECT_TRUE(pids.insert(r.pid).second);
    ASSERT_FALSE(r.rotation.empty());
    for (const VarId v : r.rotation) {
      const auto& acc = mem.accessors(v);
      EXPECT_NE(std::find(acc.begin(), acc.end(), r.pid), acc.end());
    }
  }

  // Connectivity: union-find over shared variables joins all leaves and
  // relays into one component.
  const std::int32_t total = n + tree.num_relays();
  std::vector<int> parent(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) parent[static_cast<std::size_t>(i)] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x)
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    return x;
  };
  for (VarId v = 0; v < mem.num_vars(); ++v) {
    const auto& acc = mem.accessors(v);
    for (std::size_t i = 1; i < acc.size(); ++i)
      parent[static_cast<std::size_t>(find(acc[i]))] = find(acc[0]);
  }
  const int root = find(0);
  for (int p = 1; p < total; ++p) EXPECT_EQ(find(p), root) << "process " << p;

  // Depth is logarithmic: depth <= ceil(log_a n) + 1 for arity a =
  // max(2, b-1).
  const int arity = std::max(2, b - 1);
  std::int64_t log_bound = 1;
  std::int64_t power = 1;
  while (power < n) {
    power *= arity;
    ++log_bound;
  }
  EXPECT_LE(tree.depth(), log_bound + 1);
  EXPECT_GE(tree.latency_steps_bound(), 2);
}

// TreeNetwork::shape() is the constructor's loop without variables; its
// numbers must be the built tree's, and the built tree's must match its
// actual rotations and leaf-to-root paths.
TEST(TreeNetworkTest, ShapeMatchesTheBuiltTree) {
  for (std::int32_t b = 2; b <= 6; ++b) {
    for (std::int32_t n = 1; n <= 300; ++n) {
      SharedMemory mem(b);
      const TreeNetwork tree(n, b, mem, n);
      const TreeShape shape = TreeNetwork::shape(n, b);
      ASSERT_EQ(shape.depth, tree.depth()) << "n=" << n << " b=" << b;
      ASSERT_EQ(shape.num_relays, tree.num_relays()) << "n=" << n << " b=" << b;
      ASSERT_EQ(shape.max_cycle, tree.max_cycle_len())
          << "n=" << n << " b=" << b;
      ASSERT_EQ(shape.latency_steps_bound(), tree.latency_steps_bound())
          << "n=" << n << " b=" << b;

      ASSERT_EQ(static_cast<std::int32_t>(tree.relays().size()),
                tree.num_relays());
      std::size_t longest = 1;
      for (const RelaySpec& r : tree.relays())
        longest = std::max(longest, r.rotation.size());
      ASSERT_EQ(static_cast<std::size_t>(tree.max_cycle_len()), longest)
          << "n=" << n << " b=" << b;

      // Depth is the longest leaf-to-root path. A variable's first accessor
      // is the relay that owns it; a relay's parent variable is the one in
      // its rotation that it does not own.
      std::int32_t longest_path = 0;
      for (ProcessId leaf = 0; leaf < n; ++leaf) {
        std::int32_t hops = 0;
        VarId up = tree.uplink(leaf);
        while (up != kNoVar) {
          ++hops;
          const ProcessId owner = mem.accessors(up)[0];
          up = kNoVar;
          for (const VarId v :
               tree.relays()[static_cast<std::size_t>(owner - n)].rotation)
            if (mem.accessors(v)[0] != owner) up = v;
        }
        longest_path = std::max(longest_path, hops);
      }
      ASSERT_EQ(tree.depth(), longest_path) << "n=" << n << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TreeNetworkSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8, 16, 17, 33, 64, 100),
                       ::testing::Values(2, 3, 4, 6)));

}  // namespace
}  // namespace sesp
