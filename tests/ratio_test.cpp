#include "util/ratio.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "util/packed_ratio.hpp"
#include "util/rng.hpp"

namespace sesp {
namespace {

// EXPECT_THROW for ArithmeticOverflow that also checks what() names the
// failed operation.
#define EXPECT_OVERFLOW(statement, text)                                   \
  EXPECT_THROW(                                                             \
      {                                                                     \
        try {                                                               \
          statement;                                                        \
        } catch (const ArithmeticOverflow& e) {                             \
          EXPECT_NE(std::string(e.what()).find(text), std::string::npos)    \
              << e.what();                                                  \
          throw;                                                            \
        }                                                                   \
      },                                                                    \
      ArithmeticOverflow)

TEST(RatioTest, DefaultIsZero) {
  Ratio r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(RatioTest, NormalizesToLowestTerms) {
  EXPECT_EQ(Ratio(6, 4), Ratio(3, 2));
  EXPECT_EQ(Ratio(-6, 4), Ratio(-3, 2));
  EXPECT_EQ(Ratio(6, -4), Ratio(-3, 2));
  EXPECT_EQ(Ratio(-6, -4), Ratio(3, 2));
  EXPECT_EQ(Ratio(0, 7), Ratio(0));
}

// INT64_MIN has no representable magnitude; it reduces by the power of two
// it shares with the denominator, and only by that.
TEST(RatioTest, Int64MinNumeratorNormalizes) {
  EXPECT_EQ(Ratio(INT64_MIN, 3).num(), INT64_MIN);
  EXPECT_EQ(Ratio(INT64_MIN, 3).den(), 3);
  EXPECT_EQ(Ratio(INT64_MIN, 4).num(), INT64_MIN / 4);
  EXPECT_EQ(Ratio(INT64_MIN, 4).den(), 1);
  EXPECT_EQ(Ratio(INT64_MIN, 12).num(), INT64_MIN / 4);
  EXPECT_EQ(Ratio(INT64_MIN, 12).den(), 3);
  EXPECT_EQ(Ratio(INT64_MIN, INT64_MAX).den(), INT64_MAX);
}

// The multiply's cross-reduction takes the same unsigned-magnitude gcd, so
// an INT64_MIN factor on either side multiplies exactly.
TEST(RatioTest, Int64MinNumeratorMultipliesExactly) {
  EXPECT_EQ(Ratio(INT64_MIN) * Ratio(1, 3), Ratio(INT64_MIN, 3));
  EXPECT_EQ((Ratio(INT64_MIN) * Ratio(1, 3)).num(), INT64_MIN);
  EXPECT_EQ((Ratio(INT64_MIN) * Ratio(1, 3)).den(), 3);
  EXPECT_EQ(Ratio(1, 2) * Ratio(INT64_MIN), Ratio(INT64_MIN / 2));
  EXPECT_EQ((Ratio(1, 2) * Ratio(INT64_MIN)).den(), 1);
  EXPECT_EQ(Ratio(INT64_MIN, 3) * Ratio(3, 4), Ratio(INT64_MIN / 4));
}

TEST(RatioTest, DenominatorAlwaysPositive) {
  EXPECT_GT(Ratio(1, -3).den(), 0);
  EXPECT_EQ(Ratio(1, -3).num(), -1);
}

TEST(RatioTest, Arithmetic) {
  EXPECT_EQ(Ratio(1, 2) + Ratio(1, 3), Ratio(5, 6));
  EXPECT_EQ(Ratio(1, 2) - Ratio(1, 3), Ratio(1, 6));
  EXPECT_EQ(Ratio(2, 3) * Ratio(3, 4), Ratio(1, 2));
  EXPECT_EQ(Ratio(2, 3) / Ratio(4, 3), Ratio(1, 2));
  EXPECT_EQ(-Ratio(2, 3), Ratio(-2, 3));
}

TEST(RatioTest, IntegerInterop) {
  Ratio r = 5;
  EXPECT_TRUE(r.is_integer());
  EXPECT_EQ(r + 2, Ratio(7));
  EXPECT_EQ(r * Ratio(1, 5), Ratio(1));
}

TEST(RatioTest, Comparisons) {
  EXPECT_LT(Ratio(1, 3), Ratio(1, 2));
  EXPECT_GT(Ratio(-1, 3), Ratio(-1, 2));
  EXPECT_LE(Ratio(2, 4), Ratio(1, 2));
  EXPECT_EQ(Ratio(2, 4) <=> Ratio(1, 2), std::strong_ordering::equal);
  EXPECT_LT(Ratio(-1), Ratio(0));
}

TEST(RatioTest, FloorCeil) {
  EXPECT_EQ(Ratio(7, 2).floor(), 3);
  EXPECT_EQ(Ratio(7, 2).ceil(), 4);
  EXPECT_EQ(Ratio(-7, 2).floor(), -4);
  EXPECT_EQ(Ratio(-7, 2).ceil(), -3);
  EXPECT_EQ(Ratio(6).floor(), 6);
  EXPECT_EQ(Ratio(6).ceil(), 6);
  EXPECT_EQ(Ratio(0).floor(), 0);
}

TEST(RatioTest, ToString) {
  EXPECT_EQ(Ratio(3).to_string(), "3");
  EXPECT_EQ(Ratio(7, 2).to_string(), "7/2");
  EXPECT_EQ(Ratio(-1, 3).to_string(), "-1/3");
}

TEST(RatioTest, MinMaxAbs) {
  EXPECT_EQ(min(Ratio(1, 2), Ratio(1, 3)), Ratio(1, 3));
  EXPECT_EQ(max(Ratio(1, 2), Ratio(1, 3)), Ratio(1, 2));
  EXPECT_EQ(abs(Ratio(-5, 7)), Ratio(5, 7));
  EXPECT_EQ(abs(Ratio(5, 7)), Ratio(5, 7));
}

TEST(RatioTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Ratio(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Ratio(-3, 4).to_double(), -0.75);
}

TEST(RatioTest, LargeIntermediatesDoNotOverflow) {
  // Sum whose cross-multiplication exceeds 64 bits before reduction.
  const Ratio a(1, 3'000'000'019LL);
  const Ratio b(1, 3'000'000'019LL);
  EXPECT_EQ(a + b, Ratio(2, 3'000'000'019LL));
  const Ratio c(1'000'000'007LL, 3);
  EXPECT_EQ(c * Ratio(3, 1'000'000'007LL), Ratio(1));
}

// Field-axiom spot checks over a grid of rationals.
class RatioAxioms
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RatioAxioms, RingLaws) {
  const auto [i, j, k] = GetParam();
  const Ratio a(i, 7), b(j, 5), c(k, 3);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, Ratio(0));
  if (!b.is_zero()) {
    EXPECT_EQ((a / b) * b, a);
  }
}

TEST_P(RatioAxioms, OrderCompatibleWithArithmetic) {
  const auto [i, j, k] = GetParam();
  const Ratio a(i, 7), b(j, 5), c(k, 3);
  if (a < b) {
    EXPECT_LT(a + c, b + c);
    if (c.is_positive()) {
      EXPECT_LT(a * c, b * c);
    }
    if (c.is_negative()) {
      EXPECT_GT(a * c, b * c);
    }
  }
}

TEST_P(RatioAxioms, FloorCeilBracket) {
  const auto [i, j, k] = GetParam();
  (void)j;
  (void)k;
  const Ratio a(i, 7);
  EXPECT_LE(Ratio(a.floor()), a);
  EXPECT_LT(a - Ratio(a.floor()), Ratio(1));
  EXPECT_GE(Ratio(a.ceil()), a);
  EXPECT_LT(Ratio(a.ceil()) - a, Ratio(1));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RatioAxioms,
    ::testing::Combine(::testing::Values(-9, -2, 0, 1, 5, 14),
                       ::testing::Values(-7, -1, 0, 2, 10),
                       ::testing::Values(-3, 0, 1, 4)));

// --- Fast-path vs reference cross-checks ------------------------------------
//
// The inline hot paths (den==1 add/sub/mul, same-denominator add, same-den
// compare) must be indistinguishable from a shape-blind reference that
// always cross-multiplies in 128 bits and normalizes with a full Euclid
// pass. The pairs below are drawn to hit every shape: integer/integer
// (fast), same denominator (semi-fast), mixed (slow), negatives and zero
// throughout.

Ratio ref_combine(const Ratio& a, const Ratio& b, int sign) {
  const __int128 n = static_cast<__int128>(a.num()) * b.den() +
                     sign * static_cast<__int128>(b.num()) * a.den();
  const __int128 d = static_cast<__int128>(a.den()) * b.den();
  __int128 x = n < 0 ? -n : n;
  __int128 y = d;
  while (y != 0) {
    const __int128 t = x % y;
    x = y;
    y = t;
  }
  if (x == 0) x = 1;
  return Ratio(static_cast<std::int64_t>(n / x),
               static_cast<std::int64_t>(d / x));
}

Ratio ref_mul(const Ratio& a, const Ratio& b) {
  const __int128 n = static_cast<__int128>(a.num()) * b.num();
  const __int128 d = static_cast<__int128>(a.den()) * b.den();
  __int128 x = n < 0 ? -n : n;
  __int128 y = d;
  while (y != 0) {
    const __int128 t = x % y;
    x = y;
    y = t;
  }
  if (x == 0) x = 1;
  return Ratio(static_cast<std::int64_t>(n / x),
               static_cast<std::int64_t>(d / x));
}

std::strong_ordering ref_compare(const Ratio& a, const Ratio& b) {
  const __int128 lhs = static_cast<__int128>(a.num()) * b.den();
  const __int128 rhs = static_cast<__int128>(b.num()) * a.den();
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

// Draws a value whose shape exercises a specific path: pure integers, a
// shared denominator, or an arbitrary small rational.
Ratio draw(Rng& rng, std::int64_t shared_den) {
  const std::int64_t num = rng.next_int(0, 2'000'000) - 1'000'000;
  switch (rng.next_below(4)) {
    case 0: return Ratio(num % 1000);          // den == 1 fast shapes
    case 1: return Ratio(num, shared_den);     // same-den shapes
    case 2: return Ratio(num, rng.next_int(1, 1000));
    default: return Ratio(num);
  }
}

TEST(RatioCrossCheck, RandomizedFastPathsMatchReference) {
  Rng rng(0x2a710'cafeULL);
  for (int iter = 0; iter < 20'000; ++iter) {
    const std::int64_t shared_den = rng.next_int(1, 64);
    const Ratio a = draw(rng, shared_den);
    const Ratio b = draw(rng, shared_den);
    ASSERT_EQ(a + b, ref_combine(a, b, +1))
        << a.to_string() << " + " << b.to_string();
    ASSERT_EQ(a - b, ref_combine(a, b, -1))
        << a.to_string() << " - " << b.to_string();
    ASSERT_EQ(a * b, ref_mul(a, b))
        << a.to_string() << " * " << b.to_string();
    ASSERT_EQ(a <=> b, ref_compare(a, b))
        << a.to_string() << " <=> " << b.to_string();
    if (!b.is_zero()) {
      const Ratio q = a / b;
      ASSERT_EQ(q * b, a) << a.to_string() << " / " << b.to_string();
    }
  }
}

TEST(RatioCrossCheck, EndpointValuesCompareExactly) {
  // Near-extreme numerators: the same-den comparison fast path and the
  // 128-bit cross-multiply must agree where doubles could not even
  // represent the difference.
  const std::vector<Ratio> edge = {
      Ratio(INT64_MAX, 1),          Ratio(INT64_MAX - 1, 1),
      Ratio(INT64_MAX, 2),          Ratio(-INT64_MAX, 1),
      Ratio(-INT64_MAX, 3),         Ratio(INT64_MAX, INT64_MAX - 1),
      Ratio(INT64_MAX - 1, INT64_MAX),
      Ratio(0),                     Ratio(1, INT64_MAX),
      Ratio(-1, INT64_MAX)};
  for (const Ratio& a : edge)
    for (const Ratio& b : edge)
      EXPECT_EQ(a <=> b, ref_compare(a, b))
          << a.to_string() << " <=> " << b.to_string();
}

TEST(RatioCrossCheck, IntegerOverflowFallsBackNotWraps) {
  // den==1 + den==1 whose sum exceeds int64: the inline path must hand off
  // to the slow path, which diagnoses the overflow instead of wrapping.
  EXPECT_OVERFLOW(
      {
        Ratio r = Ratio(INT64_MAX) + Ratio(1);
        (void)r;
      },
      "overflow");
  // Near the edge but representable: fast path must produce the exact sum.
  EXPECT_EQ(Ratio(INT64_MAX - 1) + Ratio(1), Ratio(INT64_MAX));
  EXPECT_EQ(Ratio(INT64_MIN + 1) - Ratio(1), Ratio(INT64_MIN));
}

TEST(RatioCrossCheck, MixedShapeEdgesAreExactOrDiagnosed) {
  // Integer against fraction: a/b ± c = (a ± c*b)/b. When c*b overflows
  // int64 but the exact result fits, the slow path must still return it;
  // when the result itself does not fit, the overflow is diagnosed.
  const std::int64_t big = std::int64_t{1} << 62;
  const Ratio third(INT64_MAX, 3);  // 2^63 - 1 is not divisible by 3
  // c*b = 3*2^62 overflows; the sums do not.
  EXPECT_EQ(Ratio(-big) + third, Ratio(-big - 1, 3));
  EXPECT_EQ(third + Ratio(-big), Ratio(-big - 1, 3));
  EXPECT_EQ(Ratio(big) - third, Ratio(big + 1, 3));
  EXPECT_EQ(third - Ratio(big), Ratio(-big - 1, 3));
  // c*b fits and the sum lands exactly on the int64 edge.
  EXPECT_EQ(Ratio(1, 3) + Ratio(INT64_MAX / 3), third);
  EXPECT_EQ(Ratio(INT64_MAX / 3) + Ratio(1, 3), third);
  EXPECT_EQ(Ratio(-1, 3) - Ratio(INT64_MAX / 3), -third);
  EXPECT_EQ(Ratio(-(INT64_MAX / 3)) - Ratio(1, 3), -third);
  // Not representable: c*b overflows and so does the exact numerator.
  EXPECT_OVERFLOW({ (void)(Ratio(big) + third); }, "overflow");
  EXPECT_OVERFLOW({ (void)(third + Ratio(big)); }, "overflow");
  EXPECT_OVERFLOW({ (void)(Ratio(-big) - third); }, "overflow");
  EXPECT_OVERFLOW({ (void)(third - Ratio(-big)); }, "overflow");
  // c*b fits but the sum overflows.
  const Ratio half(INT64_MAX, 2);
  EXPECT_OVERFLOW({ (void)(half + Ratio(big / 2)); }, "overflow");
  EXPECT_OVERFLOW({ (void)(Ratio(big / 2) + half); }, "overflow");
  EXPECT_OVERFLOW({ (void)(-half - Ratio(big / 2)); }, "overflow");
  EXPECT_OVERFLOW({ (void)(Ratio(-big / 2) - half); }, "overflow");
}

TEST(RatioCrossCheck, SameDenominatorAddStaysOnGrid) {
  // Times on a period grid keep their denominator (or reduce): the shape
  // the same-den fast path is for.
  const Ratio a(7, 12), b(11, 12);
  EXPECT_EQ(a + b, Ratio(18, 12));
  EXPECT_EQ(a + b, Ratio(3, 2));
  EXPECT_EQ(Ratio(5, 12) + Ratio(7, 12), Ratio(1));
  EXPECT_EQ(Ratio(-7, 12) + Ratio(7, 12), Ratio(0));
  EXPECT_EQ(Ratio(-5, 12) - Ratio(7, 12), Ratio(-1));
}

// Misuse is a typed error, never silent wraparound: model time must stay
// exact or the admissibility checker means nothing.
TEST(RatioError, ZeroDenominatorThrows) {
  EXPECT_OVERFLOW({ Ratio bad(1, 0); (void)bad; }, "zero denominator");
}

TEST(RatioError, DivisionByZeroThrows) {
  EXPECT_OVERFLOW(
      {
        Ratio r = Ratio(1) / Ratio(0);
        (void)r;
      },
      "division by zero");
}

TEST(RatioError, OverflowThrows) {
  EXPECT_OVERFLOW(
      {
        Ratio big(INT64_MAX, 1);
        Ratio r = big * big;
        (void)r;
      },
      "overflow");
}

// --- Interned representation (PackedRatio / RatioIntern) --------------------
//
// The calendar queue keys buckets on PackedRatio words, so the interned
// form must round-trip exactly, compare exactly like Ratio, and keep
// equality == word equality across the inline/pooled boundary.

TEST(PackedRatioTest, DefaultIsInlineZero) {
  const PackedRatio zero;
  EXPECT_TRUE(zero.is_inline());
  EXPECT_EQ(zero.inline_num(), 0);
  EXPECT_EQ(zero.inline_den(), 1);
  RatioIntern intern;
  EXPECT_EQ(intern.unpack(zero), Ratio(0));
  EXPECT_EQ(intern.pack(Ratio(0)), zero);
}

TEST(PackedRatioTest, InlineOverflowBoundaries) {
  RatioIntern intern;
  // Extremes of the inline numerator field, exact round-trip.
  const Ratio num_max(PackedRatio::kNumMax);
  const Ratio num_min(PackedRatio::kNumMin);
  EXPECT_TRUE(intern.pack(num_max).is_inline());
  EXPECT_TRUE(intern.pack(num_min).is_inline());
  EXPECT_EQ(intern.unpack(intern.pack(num_max)), num_max);
  EXPECT_EQ(intern.unpack(intern.pack(num_min)), num_min);
  // One past the field: promotion to the pooled exact form.
  const Ratio num_over(PackedRatio::kNumMax + 1);
  const Ratio num_under(PackedRatio::kNumMin - 1);
  EXPECT_TRUE(intern.pack(num_over).is_pooled());
  EXPECT_TRUE(intern.pack(num_under).is_pooled());
  EXPECT_EQ(intern.unpack(intern.pack(num_over)), num_over);
  EXPECT_EQ(intern.unpack(intern.pack(num_under)), num_under);
  // Same for the denominator field (prime-ish values dodge normalization).
  const Ratio den_max(1, PackedRatio::kDenMax);
  const Ratio den_over(1, PackedRatio::kDenMax + 1);
  EXPECT_TRUE(intern.pack(den_max).is_inline());
  EXPECT_TRUE(intern.pack(den_over).is_pooled());
  EXPECT_EQ(intern.unpack(intern.pack(den_max)), den_max);
  EXPECT_EQ(intern.unpack(intern.pack(den_over)), den_over);
}

TEST(PackedRatioTest, PromotionToPoolAndBack) {
  RatioIntern intern;
  // A pooled value whose arithmetic lands back on an inline value: the two
  // representations must agree through the round trip.
  const Ratio big(PackedRatio::kNumMax + 5);
  const PackedRatio packed_big = intern.pack(big);
  ASSERT_TRUE(packed_big.is_pooled());
  const Ratio back = intern.unpack(packed_big) - Ratio(5);
  const PackedRatio packed_back = intern.pack(back);
  EXPECT_TRUE(packed_back.is_inline());
  EXPECT_EQ(intern.unpack(packed_back), Ratio(PackedRatio::kNumMax));
}

TEST(PackedRatioTest, PoolDedupesToIdenticalWords) {
  RatioIntern intern;
  const Ratio huge(INT64_MAX / 3, 7);
  const PackedRatio a = intern.pack(huge);
  const PackedRatio b = intern.pack(Ratio(INT64_MAX / 3, 7));
  EXPECT_TRUE(a.is_pooled());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.word(), b.word());
  EXPECT_EQ(intern.pool_size(), 1u);
  // A different value gets a different word even with an equal hash bucket.
  const PackedRatio c = intern.pack(Ratio(INT64_MAX / 3, 11));
  EXPECT_NE(a.word(), c.word());
  EXPECT_EQ(intern.pool_size(), 2u);
}

TEST(PackedRatioTest, HashAndCompareConsistentWithEquality) {
  RatioIntern intern;
  Rng rng(0x9ac7'ed01ULL);
  std::vector<Ratio> values;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t num = rng.next_int(0, 2'000'000) - 1'000'000;
    switch (rng.next_below(3)) {
      case 0:
        values.push_back(Ratio(num, rng.next_int(1, 1000)));
        break;
      case 1:  // outside the inline numerator field
        values.push_back(Ratio(PackedRatio::kNumMax + 1 + (num & 0xffff)));
        break;
      default:  // outside the inline denominator field
        values.push_back(
            Ratio(num | 1, PackedRatio::kDenMax + rng.next_int(1, 1000)));
        break;
    }
  }
  for (const Ratio& a : values)
    for (const Ratio& b : values) {
      const PackedRatio pa = intern.pack(a);
      const PackedRatio pb = intern.pack(b);
      ASSERT_EQ(a == b, pa == pb)
          << a.to_string() << " vs " << b.to_string();
      ASSERT_EQ(a <=> b, intern.compare(pa, pb))
          << a.to_string() << " <=> " << b.to_string();
      ASSERT_EQ(intern.less(pa, pb), a < b);
      if (a == b) {
        ASSERT_EQ(pa.hash(), pb.hash());
      }
    }
}

TEST(PackedRatioTest, FuzzMixedInlineAndPooledExpressions) {
  // Mixed expressions: accumulate times the way the simulator does (t +
  // delay), alternating inline-size and pool-size operands, and check the
  // packed comparisons track the exact Ratio order at every step.
  RatioIntern intern;
  Rng rng(0x51c7'beefULL);
  Ratio t(0);
  PackedRatio packed_t = intern.pack(t);
  // One fixed oversize denominator: repeated adds stay on its grid, so the
  // exact accumulator never overflows while every touch of it is pooled.
  const std::int64_t big_den = PackedRatio::kDenMax + 98;
  for (int iter = 0; iter < 2'000; ++iter) {
    Ratio delta;
    switch (rng.next_below(4)) {
      case 0:  // power-of-two grid: denominators stay bounded under lcm
        delta = Ratio(rng.next_int(0, 1000),
                      std::int64_t{1} << rng.next_below(7));
        break;
      case 1:  // denominator blowup: forces pooled intermediates
        delta = Ratio(rng.next_int(1, 7), big_den);
        break;
      case 2:
        delta = Ratio(rng.next_int(0, 3));
        break;
      default:
        delta = Ratio(rng.next_int(0, 10'000), 3);
        break;
    }
    const Ratio next = t + delta;
    const PackedRatio packed_next = intern.pack(next);
    ASSERT_EQ(intern.unpack(packed_next), next);
    ASSERT_EQ(intern.compare(packed_t, packed_next), t <=> next);
    ASSERT_EQ(intern.less(packed_t, packed_next), t < next);
    ASSERT_EQ(packed_t == packed_next, t == next);
    t = next;
    packed_t = packed_next;
  }
  // The pool only ever saw the pooled forms; inline values never intern.
  EXPECT_GT(intern.pool_size(), 0u);
}

}  // namespace
}  // namespace sesp
