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
  // Fields at the byte-length boundaries of the folded multiplies: a full
  // top byte, a zero low byte under a nonzero one, zero bytes between
  // nonzero ones, and all eight bytes nonzero.
  for (const std::int64_t v : {std::int64_t{0xff}, std::int64_t{0x100},
                               std::int64_t{0x10001}, std::int64_t{0xff00ff},
                               std::int64_t{-1}}) {
    const auto p = static_cast<ProcessId>(v);
    const PortInfo info{v, v, true};
    Knowledge k;
    k.record(p, info);
    EXPECT_EQ(k.digest(), reference_digest({{p, info}})) << v;
    const PortInfo mixed{v, 0xff - v, false};
    k.record(0, mixed);
    EXPECT_EQ(k.digest(), reference_digest({{0, mixed}, {p, info}})) << v;
  }
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

// exchange(a, b) must leave a and b exactly as a.merge(b); b.merge(a) does:
// the same contents and digests. Its stamps may differ from the two merges',
// but equal stamps must still mean equal contents.
void expect_exchange_matches_merges(const Knowledge& a0, const Knowledge& b0) {
  Knowledge a = a0;
  Knowledge b = b0;
  Knowledge::exchange(a, b);
  Knowledge ra = a0;
  Knowledge rb = b0;
  ra.merge(rb);
  rb.merge(ra);
  EXPECT_EQ(a, ra) << a.to_string() << " vs " << ra.to_string();
  EXPECT_EQ(b, rb) << b.to_string() << " vs " << rb.to_string();
  EXPECT_EQ(a.digest(), ra.digest()) << a.to_string();
  EXPECT_EQ(b.digest(), rb.digest()) << b.to_string();
  const Knowledge* values[] = {&a0, &b0, &a, &b, &ra, &rb};
  for (const Knowledge* x : values)
    for (const Knowledge* y : values)
      if (x->stamp() == y->stamp()) {
        EXPECT_EQ(*x, *y) << x->to_string() << " vs " << y->to_string();
      }
  // A later mutation of one side restamps it apart from the other.
  a.record(1000, PortInfo{1, 1, true});
  EXPECT_NE(a.stamp(), b.stamp());
}

TEST(KnowledgeTest, ExchangeSameIds) {
  Knowledge a, b;
  a.record(0, PortInfo{3, 1, false});
  a.record(4, PortInfo{0, 0, true});
  b.record(0, PortInfo{1, 2, false});
  b.record(4, PortInfo{7, 0, false});
  expect_exchange_matches_merges(a, b);  // both sides change
  Knowledge bigger = a;
  bigger.record(0, PortInfo{9, 9, true});
  bigger.record(4, PortInfo{9, 9, true});
  expect_exchange_matches_merges(bigger, a);  // only the second changes
  expect_exchange_matches_merges(a, bigger);  // only the first changes
}

TEST(KnowledgeTest, ExchangeDisjointIds) {
  Knowledge a, b;
  a.record(0, PortInfo{3, 1, false});
  a.record(2, PortInfo{1, 1, false});
  b.record(1, PortInfo{5, 0, true});
  b.record(3, PortInfo{2, 2, false});
  expect_exchange_matches_merges(a, b);
  Knowledge overlap = b;
  overlap.record(0, PortInfo{8, 0, false});
  expect_exchange_matches_merges(a, overlap);
}

TEST(KnowledgeTest, ExchangeWithAnEmptySide) {
  Knowledge a;
  a.record(2, PortInfo{4, 4, true});
  a.record(5, PortInfo{1, 0, false});
  expect_exchange_matches_merges(a, Knowledge{});
  expect_exchange_matches_merges(Knowledge{}, a);
  expect_exchange_matches_merges(Knowledge{}, Knowledge{});
}

TEST(KnowledgeTest, ExchangeOfEqualValues) {
  Knowledge a;
  a.record(1, PortInfo{2, 3, false});
  a.record(6, PortInfo{0, 1, true});
  expect_exchange_matches_merges(a, a);  // one value copied: one stamp
  Knowledge b;
  b.record(6, PortInfo{0, 1, true});
  b.record(1, PortInfo{2, 3, false});
  ASSERT_EQ(a, b);
  ASSERT_NE(a.stamp(), b.stamp());
  expect_exchange_matches_merges(a, b);  // equal contents, distinct stamps

  // Exchanging unchanged values leaves both stamps alone.
  Knowledge x = a;
  Knowledge y = b;
  Knowledge::exchange(x, y);
  EXPECT_EQ(x.stamp(), a.stamp());
  EXPECT_EQ(y.stamp(), b.stamp());
}

TEST(KnowledgeTest, ExchangeMatchesMergesOnRandomValues) {
  Rng rng(0xe8c4'a55eULL);
  for (int trial = 0; trial < 500; ++trial) {
    // Ids from a small pool, so the sides often hold the same ids.
    Knowledge a, b;
    const auto fill = [&rng](Knowledge& k) {
      const auto records = rng.next_int(0, 5);
      for (std::int64_t r = 0; r < records; ++r)
        k.record(static_cast<ProcessId>(rng.next_int(0, 3)),
                 PortInfo{rng.next_int(0, 4), rng.next_int(0, 4),
                          rng.next_bool(1, 3)});
    };
    fill(a);
    fill(b);
    expect_exchange_matches_merges(a, b);
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
