#pragma once

// Interned one-word representation of exact rationals, for the simulator
// core's hot data structures (docs/performance.md "Ratio interning").
//
// A PackedRatio is a single 64-bit word. Small rationals — numerator in
// [-2^39, 2^39), denominator in [1, 2^23) — are stored inline (tag bit 0),
// extending PR 3's den==1 fast paths: virtually every model time produced by
// the Table-1 schedules fits. Everything else is promoted to an exact Ratio
// held in a RatioIntern pool and represented by its pool index (tag bit 1).
// The pool dedupes, so two PackedRatios made from equal Ratios by the same
// pool are ALWAYS the same word:
//
//   * equality is one integer compare (Ratio normalization makes the inline
//     encoding canonical; interning makes the pooled encoding canonical),
//   * hashing is a mix of the word, consistent with equality by
//     construction,
//   * ordering compares inline pairs with 64-bit cross-multiplies (40-bit
//     numerators times 23-bit denominators cannot overflow) and falls back
//     to exact Ratio comparison only when a pooled value is involved.
//
// The pool is single-writer, same as the simulators that own one; the
// calendar queue keys its exact-time buckets on these words.

#include <cstdint>
#include <vector>

#include "util/ratio.hpp"

namespace sesp {

class RatioIntern;

class PackedRatio {
 public:
  // Zero, inline. (0/1 encodes to den bits = 1, num bits = 0.)
  constexpr PackedRatio() noexcept : word_(kDenOne) {}

  constexpr bool is_inline() const noexcept { return (word_ & 1u) == 0; }
  constexpr bool is_pooled() const noexcept { return (word_ & 1u) != 0; }
  constexpr std::uint64_t word() const noexcept { return word_; }

  // Inline fields; meaningful only when is_inline().
  constexpr std::int64_t inline_num() const noexcept {
    return static_cast<std::int64_t>(word_) >> kNumShift;
  }
  constexpr std::int64_t inline_den() const noexcept {
    return static_cast<std::int64_t>((word_ >> 1) & kDenMask);
  }
  // Pool index; meaningful only when is_pooled().
  constexpr std::uint64_t pool_index() const noexcept { return word_ >> 1; }

  // Equal packs (from one pool) are equal words and vice versa.
  friend bool operator==(PackedRatio a, PackedRatio b) noexcept {
    return a.word_ == b.word_;
  }

  // Mix of the word (splitmix64 finalizer); equality-consistent.
  std::uint64_t hash() const noexcept {
    std::uint64_t x = word_ + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static constexpr int kNumShift = 24;
  static constexpr std::int64_t kNumMin = -(std::int64_t{1} << 39);
  static constexpr std::int64_t kNumMax = (std::int64_t{1} << 39) - 1;
  static constexpr std::int64_t kDenMax = (std::int64_t{1} << 23) - 1;

  // True iff a normalized num/den pair fits the inline encoding.
  static constexpr bool fits_inline(std::int64_t num,
                                    std::int64_t den) noexcept {
    return num >= kNumMin && num <= kNumMax && den >= 1 && den <= kDenMax;
  }

 private:
  friend class RatioIntern;
  static constexpr std::uint64_t kDenMask = (1u << 23) - 1;
  static constexpr std::uint64_t kDenOne = 2;  // den=1 field, num=0, tag=0

  constexpr explicit PackedRatio(std::uint64_t word) noexcept : word_(word) {}

  std::uint64_t word_;
};

// Dedup pool giving PackedRatio its canonical pooled form. Single-writer;
// pack() is O(1) amortized (one open-addressing probe sequence), unpack()
// is an array read. pool_size() only grows until clear() — entries live
// until then, so PackedRatios are trivially copyable handles.
class RatioIntern {
 public:
  RatioIntern();

  PackedRatio pack(const Ratio& r);
  Ratio unpack(PackedRatio p) const {
    if (p.is_inline()) return make_ratio(p.inline_num(), p.inline_den());
    return pool_[static_cast<std::size_t>(p.pool_index())];
  }

  // Exact comparison of two packs from this pool.
  std::strong_ordering compare(PackedRatio a, PackedRatio b) const {
    if (a.word() == b.word()) return std::strong_ordering::equal;
    if (a.is_inline() && b.is_inline()) {
      const std::int64_t ad = a.inline_den(), bd = b.inline_den();
      if (ad == bd) return a.inline_num() <=> b.inline_num();
      // 40-bit num x 23-bit den: |product| < 2^62, no overflow.
      return a.inline_num() * bd <=> b.inline_num() * ad;
    }
    return unpack(a) <=> unpack(b);
  }

  bool less(PackedRatio a, PackedRatio b) const {
    return compare(a, b) == std::strong_ordering::less;
  }

  std::size_t pool_size() const noexcept { return pool_.size(); }

  // Forgets every pooled value, invalidating their packs, and keeps the
  // capacity. Costs the pool's size, not the index's.
  void clear();

 private:
  static Ratio make_ratio(std::int64_t num, std::int64_t den) noexcept {
    // The inline fields came from a normalized Ratio, so reconstruct
    // without re-normalizing (den == 1 short-circuits in the ctor; other
    // dens share no factor with num by construction — but go through the
    // ctor anyway for its invariants; gcd of a reduced pair is 1, cheap).
    return den == 1 ? Ratio(num) : Ratio(num, den);
  }

  void rehash(std::size_t capacity);

  std::vector<Ratio> pool_;
  // Open-addressing index over pool_: slot -> pool index + 1 (0 = empty).
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace sesp
