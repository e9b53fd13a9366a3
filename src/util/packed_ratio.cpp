#include "util/packed_ratio.hpp"

namespace sesp {

namespace {

std::uint64_t pair_hash(std::int64_t num, std::int64_t den) noexcept {
  std::uint64_t x = static_cast<std::uint64_t>(num) * 0x9e3779b97f4a7c15ULL;
  x ^= static_cast<std::uint64_t>(den) + 0x517cc1b727220a95ULL +
       (x << 6) + (x >> 2);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 27);
}

}  // namespace

RatioIntern::RatioIntern() { rehash(64); }

void RatioIntern::rehash(std::size_t capacity) {
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    std::size_t slot = pair_hash(pool_[i].num(), pool_[i].den()) & mask_;
    while (slots_[slot] != 0) slot = (slot + 1) & mask_;
    slots_[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

void RatioIntern::clear() {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    // Probe from the entry's home slot; earlier clears may have emptied
    // slots on the way, so search for its index rather than stop at a hole.
    std::size_t slot = pair_hash(pool_[i].num(), pool_[i].den()) & mask_;
    while (slots_[slot] != i + 1) slot = (slot + 1) & mask_;
    slots_[slot] = 0;
  }
  pool_.clear();
}

PackedRatio RatioIntern::pack(const Ratio& r) {
  if (PackedRatio::fits_inline(r.num(), r.den())) {
    const std::uint64_t word =
        (static_cast<std::uint64_t>(r.num()) << PackedRatio::kNumShift) |
        (static_cast<std::uint64_t>(r.den()) << 1);
    return PackedRatio(word);
  }
  std::size_t slot = pair_hash(r.num(), r.den()) & mask_;
  while (slots_[slot] != 0) {
    const Ratio& held = pool_[slots_[slot] - 1];
    if (held.num() == r.num() && held.den() == r.den())
      return PackedRatio(
          (static_cast<std::uint64_t>(slots_[slot] - 1) << 1) | 1u);
    slot = (slot + 1) & mask_;
  }
  pool_.push_back(r);
  slots_[slot] = static_cast<std::uint32_t>(pool_.size());
  const PackedRatio packed(
      (static_cast<std::uint64_t>(pool_.size() - 1) << 1) | 1u);
  if (pool_.size() * 2 > slots_.size()) rehash(slots_.size() * 2);
  return packed;
}

}  // namespace sesp
