#include "util/rng.hpp"

#include <stdexcept>

namespace sesp {

namespace {

// splitmix64, used to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  for (auto& word : s_) word = splitmix64(seed);
  // Avoid the all-zero state, which xoshiro cannot leave.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's rejection method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool Rng::next_bool(std::uint32_t p_num, std::uint32_t p_den) noexcept {
  return next_below(p_den) < p_num;
}

std::uint64_t Rng::next_grid_index(std::uint32_t grid) noexcept {
  return next_below(std::uint64_t{grid} + 1);
}

GridDraw::GridDraw(const Ratio& lo, const Ratio& hi, std::uint32_t grid)
    : lo_(lo), hi_(hi), grid_(grid) {
  if (grid > kMaxGrid) throw std::invalid_argument("GridDraw: grid too large");
  if (lo < hi && grid > 0) points_.resize(std::size_t{grid} + 1);
}

Ratio GridDraw::operator()(Rng& rng) {
  if (points_.empty()) return lo_;
  const std::uint64_t k = rng.next_grid_index(grid_);
  std::optional<Ratio>& point = points_[k];
  if (!point)
    point = lo_ + (hi_ - lo_) * Ratio(static_cast<std::int64_t>(k),
                                      static_cast<std::int64_t>(grid_));
  return *point;
}

}  // namespace sesp
