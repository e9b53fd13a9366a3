#pragma once

// Deterministic, seedable PRNG (xoshiro256**) for adversary schedule
// generation. std::mt19937_64 would also work; we use xoshiro for speed and
// a guaranteed-stable stream across standard libraries, so recorded
// experiment seeds reproduce byte-identical schedules anywhere.

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ratio.hpp"

namespace sesp {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  std::uint64_t next_u64() noexcept;

  // Uniform in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  // Uniform integer in the closed interval [lo, hi].
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  // True with probability p_num/p_den.
  bool next_bool(std::uint32_t p_num, std::uint32_t p_den) noexcept;

  // Uniform k in the closed range [0, grid]. The bound grid + 1 is formed in
  // 64 bits, so grid = UINT32_MAX draws from all 2^32 + 1 points.
  std::uint64_t next_grid_index(std::uint32_t grid) noexcept;

 private:
  std::uint64_t s_[4];
};

// Uniform rational in [lo, hi] on a grid of `grid` equal subintervals:
// lo + (hi - lo) * Ratio(k, grid) for k = rng.next_grid_index(grid). Each
// grid point's exact value is computed the first time it is drawn and then
// cached, so a long run pays the gcds once per point rather than once per
// draw; values and RNG consumption are those of evaluating the formula every
// time. When !(lo < hi) or grid == 0 every draw is lo and consumes no
// randomness (docs/performance.md "Grid draws").
class GridDraw {
 public:
  // Largest grid whose points are cached; larger grids throw
  // std::invalid_argument.
  static constexpr std::uint32_t kMaxGrid = 1u << 12;

  GridDraw(const Ratio& lo, const Ratio& hi, std::uint32_t grid);

  Ratio operator()(Rng& rng);

 private:
  Ratio lo_, hi_;
  std::uint32_t grid_;
  // One slot per grid point, empty when the draw is degenerate.
  std::vector<std::optional<Ratio>> points_;
};

}  // namespace sesp
