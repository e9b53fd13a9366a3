#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sesp {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInClosedRange) {
  Rng rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo = hit_lo || v == -3;
    hit_hi = hit_hi || v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, NextBoolProbabilityRoughlyRight) {
  Rng rng(5);
  int heads = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.next_bool(1, 4)) ++heads;
  EXPECT_GT(heads, 2000);
  EXPECT_LT(heads, 3000);
}

TEST(RngTest, GridIndexBoundIsFormedIn64Bits) {
  // grid + 1 in 32 bits would wrap UINT32_MAX to next_below(0), pinning
  // every draw to index 0; the bound must be 2^32 exactly.
  Rng a(21), b(21);
  bool nonzero = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t k = a.next_grid_index(UINT32_MAX);
    EXPECT_EQ(k, b.next_below(std::uint64_t{1} << 32));
    nonzero = nonzero || k != 0;
  }
  EXPECT_TRUE(nonzero);
}

TEST(GridDrawTest, StaysInInterval) {
  Rng rng(9);
  const Ratio lo(1, 3), hi(5, 2);
  GridDraw draw(lo, hi, 16);
  for (int i = 0; i < 500; ++i) {
    const Ratio r = draw(rng);
    EXPECT_GE(r, lo);
    EXPECT_LE(r, hi);
  }
}

TEST(GridDrawTest, HitsEndpoints) {
  Rng rng(13);
  const Ratio lo(0), hi(1);
  GridDraw draw(lo, hi, 4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const Ratio r = draw(rng);
    saw_lo = saw_lo || r == lo;
    saw_hi = saw_hi || r == hi;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(GridDrawTest, MatchesUncachedFormula) {
  // The cache must not change a single draw: on the same seed every value
  // equals lo + (hi - lo) * k/grid evaluated afresh, on every grid the
  // adversaries use and with negative and fractional endpoints.
  const std::vector<std::pair<Ratio, Ratio>> windows = {
      {Ratio(0), Ratio(1)},
      {Ratio(1, 3), Ratio(5, 2)},
      {Ratio(-7, 4), Ratio(3, 5)},
      {Ratio(1, 1000003), Ratio(1, 999979)}};
  for (const std::uint32_t grid : {1u, 4u, 16u, 64u}) {
    for (const auto& [lo, hi] : windows) {
      Rng cached_rng(31 + grid), fresh_rng(31 + grid);
      GridDraw draw(lo, hi, grid);
      for (int i = 0; i < 400; ++i) {
        const auto k = static_cast<std::int64_t>(
            fresh_rng.next_grid_index(grid));
        ASSERT_EQ(draw(cached_rng),
                  lo + (hi - lo) * Ratio(k, static_cast<std::int64_t>(grid)))
            << "grid " << grid << " [" << lo << ", " << hi << "] draw " << i;
      }
      EXPECT_EQ(cached_rng.next_u64(), fresh_rng.next_u64());
    }
  }
}

TEST(GridDrawTest, DegenerateDrawsConsumeNoRandomness) {
  Rng rng(17), untouched(17);
  GridDraw point(Ratio(2), Ratio(2), 64);
  GridDraw no_grid(Ratio(1), Ratio(3), 0);
  GridDraw inverted(Ratio(3), Ratio(1), 64);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(point(rng), Ratio(2));
    EXPECT_EQ(no_grid(rng), Ratio(1));
    EXPECT_EQ(inverted(rng), Ratio(3));
  }
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(GridDrawTest, RejectsGridsTooLargeToCache) {
  EXPECT_NO_THROW(GridDraw(Ratio(0), Ratio(1), GridDraw::kMaxGrid));
  EXPECT_THROW(GridDraw(Ratio(0), Ratio(1), GridDraw::kMaxGrid + 1),
               std::invalid_argument);
  EXPECT_THROW(GridDraw(Ratio(0), Ratio(1), UINT32_MAX),
               std::invalid_argument);
}

}  // namespace
}  // namespace sesp
