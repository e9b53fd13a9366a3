// Unit tests for util/digest — the one FNV-1a definition shared by the run
// journal's header guard / frame checksums and the serve result-cache keys.
// The reference vectors pin the exact hash function: if either constant
// drifted, every persisted journal digest would silently stop verifying.

#include "util/digest.hpp"

#include <gtest/gtest.h>

#include "recovery/journal.hpp"

namespace sesp {
namespace {

// Pinned vectors for the repo's digest (the historical offset basis every
// persisted journal header was written with — see digest.hpp). If either
// constant drifts, these catch it before any on-disk digest stops verifying.
TEST(DigestTest, MatchesPinnedVectors) {
  EXPECT_EQ(util::fnv1a(""), util::kFnv1aOffsetBasis);
  EXPECT_EQ(util::fnv1a("a"), 4953267810257967366ULL);
  EXPECT_EQ(util::fnv1a("foobar"), 0x88fad7c0a8ff07f2ULL);
}

TEST(DigestTest, ChainingEqualsConcatenation) {
  const std::uint64_t chained = util::fnv1a("world", util::fnv1a("hello"));
  EXPECT_EQ(chained, util::fnv1a("helloworld"));
  EXPECT_NE(chained, util::fnv1a("worldhello"));
}

TEST(DigestTest, HexRenderingIsCanonical16Lowercase) {
  EXPECT_EQ(util::fnv1a_hex(0), "0000000000000000");
  EXPECT_EQ(util::fnv1a_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(util::fnv1a_hex(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
  EXPECT_EQ(util::fnv1a_hex(util::fnv1a("foobar")), "88fad7c0a8ff07f2");
}

TEST(DigestTest, HexRoundTripsThroughParse) {
  const std::uint64_t cases[] = {0ULL, 1ULL, 0x0123456789abcdefULL,
                                 0xffffffffffffffffULL, util::fnv1a("sesp")};
  for (const std::uint64_t v : cases) {
    std::uint64_t parsed = 0;
    ASSERT_TRUE(util::parse_fnv1a_hex(util::fnv1a_hex(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(DigestTest, ParseRejectsNonCanonicalRenderings) {
  std::uint64_t out = 0;
  EXPECT_FALSE(util::parse_fnv1a_hex("", &out));
  EXPECT_FALSE(util::parse_fnv1a_hex("123", &out));                  // short
  EXPECT_FALSE(util::parse_fnv1a_hex("0000000000000000ff", &out));   // long
  EXPECT_FALSE(util::parse_fnv1a_hex("00000000DEADBEEF", &out));  // uppercase
  EXPECT_FALSE(util::parse_fnv1a_hex("000000000000000g", &out));  // non-hex
  EXPECT_FALSE(util::parse_fnv1a_hex(" 000000000000000", &out));
}

// The recovery:: aliases must be the same function — a journal written
// through one spelling verifies through the other.
TEST(DigestTest, RecoveryAliasesForwardToTheOneDefinition) {
  const std::string text = "substrate|model|3|4|2|1|2|0|4|1992";
  EXPECT_EQ(recovery::fnv1a(text), util::fnv1a(text));
  EXPECT_EQ(recovery::fnv1a(text, 42), util::fnv1a(text, 42));
  EXPECT_EQ(recovery::fnv1a_hex(recovery::fnv1a(text)),
            util::fnv1a_hex(util::fnv1a(text)));
}

TEST(DigestTest, DistinctConfigStringsGetDistinctDigests) {
  // Not a collision-resistance claim — a regression guard that the digest
  // actually covers its whole input (no truncation, no early exit).
  EXPECT_NE(util::fnv1a("mpm|semisync|3|3|2"), util::fnv1a("mpm|semisync|3|3|3"));
  EXPECT_NE(util::fnv1a("a|b"), util::fnv1a("a|b|"));
  EXPECT_NE(util::fnv1a(std::string(1000, 'x')),
            util::fnv1a(std::string(1001, 'x')));
}

}  // namespace
}  // namespace sesp
