#include "smm/knowledge.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>

#include "util/rng.hpp"

namespace sesp {
namespace {

TEST(PortInfoTest, JoinIsPointwiseMax) {
  const PortInfo a{3, 1, false};
  const PortInfo b{2, 4, true};
  const PortInfo j = join(a, b);
  EXPECT_EQ(j.steps, 3);
  EXPECT_EQ(j.session, 4);
  EXPECT_TRUE(j.done);
}

TEST(KnowledgeTest, AboutUnknownIsDefault) {
  Knowledge k;
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.about(5).steps, 0);
  EXPECT_FALSE(k.has(5));
}

TEST(KnowledgeTest, RecordJoins) {
  Knowledge k;
  k.record(1, PortInfo{5, 0, false});
  k.record(1, PortInfo{3, 2, true});
  EXPECT_EQ(k.about(1).steps, 5);
  EXPECT_EQ(k.about(1).session, 2);
  EXPECT_TRUE(k.about(1).done);
}

TEST(KnowledgeTest, ThresholdQueries) {
  Knowledge k;
  k.record(0, PortInfo{4, 1, true});
  k.record(1, PortInfo{2, 1, false});
  EXPECT_TRUE(k.all_have_steps(2, 2));
  EXPECT_FALSE(k.all_have_steps(2, 3));
  EXPECT_TRUE(k.all_have_steps(2, 4, /*except=*/1));
  EXPECT_TRUE(k.all_have_session(2, 1));
  EXPECT_FALSE(k.all_done(2));
  EXPECT_TRUE(k.all_done(2, /*except=*/1));
  // Missing process fails the quantifier.
  EXPECT_FALSE(k.all_have_steps(3, 1));
}

TEST(KnowledgeTest, DigestChangesWithContent) {
  Knowledge a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.record(0, PortInfo{1, 0, false});
  EXPECT_NE(a.digest(), b.digest());
  b.record(0, PortInfo{1, 0, false});
  EXPECT_EQ(a.digest(), b.digest());
  b.record(0, PortInfo{1, 0, true});
  EXPECT_NE(a.digest(), b.digest());
}

// Plain byte-wise FNV-1a over (process, steps, session, done) per entry in
// ascending process order, each field as 8 little-endian bytes: the digest
// definition the golden corpus pins.
std::uint64_t reference_digest(const std::map<ProcessId, PortInfo>& facts) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [p, info] : facts) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p)));
    mix(static_cast<std::uint64_t>(info.steps));
    mix(static_cast<std::uint64_t>(info.session));
    mix(info.done ? 1 : 0);
  }
  return h;
}

// A fact value from every byte-length class: zero, small, negative, at or
// above 2^56 (no zero high byte), and arbitrary 64-bit.
std::int64_t draw_fact(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: return 0;
    case 1: return rng.next_int(1, 300);
    case 2: return -rng.next_int(1, 1'000'000);
    case 3: return rng.next_int(std::int64_t{1} << 56, INT64_MAX);
    case 4: return INT64_MIN + rng.next_int(0, 3);
    default: return static_cast<std::int64_t>(rng.next_u64());
  }
}

TEST(KnowledgeTest, DigestMatchesBytewiseFnv) {
  EXPECT_EQ(Knowledge().digest(), reference_digest({}));
  Rng rng(0x5e55'd16e57ULL);
  for (int trial = 0; trial < 300; ++trial) {
    Knowledge k;
    std::map<ProcessId, PortInfo> facts;
    const auto records = rng.next_int(1, 12);
    for (std::int64_t r = 0; r < records; ++r) {
      const auto p = static_cast<ProcessId>(rng.next_int(0, 1000));
      const PortInfo info{draw_fact(rng), draw_fact(rng),
                          rng.next_bool(1, 2)};
      k.record(p, info);
      const auto [it, fresh] = facts.try_emplace(p, info);
      if (!fresh) it->second = join(it->second, info);
      ASSERT_EQ(k.digest(), reference_digest(facts)) << k.to_string();
    }
  }
}

// CRDT join-semilattice laws, parameterized over small knowledge values.
Knowledge make(int steps0, int sess1, bool done2) {
  Knowledge k;
  if (steps0 >= 0) k.record(0, PortInfo{steps0, 0, false});
  if (sess1 >= 0) k.record(1, PortInfo{0, sess1, false});
  k.record(2, PortInfo{0, 0, done2});
  return k;
}

class KnowledgeLattice
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KnowledgeLattice, MergeIsCommutativeAssociativeIdempotent) {
  const auto [i, j, l] = GetParam();
  const Knowledge a = make(i, j, l % 2 == 0);
  const Knowledge b = make(j, l, i % 2 == 0);
  const Knowledge c = make(l, i, j % 2 == 0);

  Knowledge ab = a;
  ab.merge(b);
  Knowledge ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  Knowledge ab_c = ab;
  ab_c.merge(c);
  Knowledge bc = b;
  bc.merge(c);
  Knowledge a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);

  Knowledge aa = a;
  aa.merge(a);
  EXPECT_EQ(aa, a);
}

TEST_P(KnowledgeLattice, MergeIsMonotone) {
  const auto [i, j, l] = GetParam();
  Knowledge a = make(i, j, false);
  const Knowledge b = make(j, l, true);
  const PortInfo before = a.about(0);
  a.merge(b);
  EXPECT_GE(a.about(0).steps, before.steps);
  EXPECT_GE(a.about(1).session, 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, KnowledgeLattice,
                         ::testing::Combine(::testing::Values(-1, 0, 2, 7),
                                            ::testing::Values(-1, 1, 5),
                                            ::testing::Values(0, 3, 9)));

}  // namespace
}  // namespace sesp
