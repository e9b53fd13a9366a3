#pragma once

// Exact rational arithmetic used for all model time in the library.
//
// The bound formulas of Rhee & Welch 1992 (e.g. K = 2*d2*c1 / (d2 - u/2) in
// Theorem 6.5) and the retiming constructions in the lower-bound proofs
// require exact comparisons: a timed computation is admissible iff step gaps
// and message delays lie in closed rational intervals, and the proofs place
// steps exactly on interval endpoints. Floating point would make the
// admissibility checker flaky, so time is a normalized int64 fraction with
// __int128 intermediates.
//
// Hot-path layout: most model-time values in practice are integers (den ==
// 1) or share a denominator (steps on a common period grid), so +, -, * and
// <=> take inline fast paths for those shapes — an overflow-checked int64
// op, no gcd, no division — and + and - also for an integer against a
// fraction. They fall back to the out-of-line slow paths (Knuth 4.5.1
// reduced arithmetic on __int128) only for two fractions or when the fast
// op would overflow. ratio_test cross-checks both paths against a
// normalize-always reference.

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace sesp {

class Ratio {
 public:
  // Value-initializes to 0/1.
  constexpr Ratio() noexcept : num_(0), den_(1) {}

  // Implicit from integers so call sites can write `t + 3`.
  constexpr Ratio(std::int64_t value) noexcept : num_(value), den_(1) {}

  // num/den, normalized to lowest terms with den > 0. Terminates the process
  // on den == 0 or overflow (model time never legitimately overflows int64
  // after normalization; overflow indicates a harness bug).
  Ratio(std::int64_t num, std::int64_t den);

  constexpr std::int64_t num() const noexcept { return num_; }
  constexpr std::int64_t den() const noexcept { return den_; }

  bool is_integer() const noexcept { return den_ == 1; }
  bool is_zero() const noexcept { return num_ == 0; }
  bool is_negative() const noexcept { return num_ < 0; }
  bool is_positive() const noexcept { return num_ > 0; }

  double to_double() const noexcept;

  // Largest integer <= this (mathematical floor, correct for negatives).
  std::int64_t floor() const noexcept;
  // Smallest integer >= this.
  std::int64_t ceil() const noexcept;

  Ratio operator-() const;

  // Integer against fraction: the cross-multiplied a/b ± c = (a ± c*b)/b is
  // already in lowest terms, since gcd(a ± c*b, b) = gcd(a, b) = 1. That is
  // the shape of `t + delay` for a fractional delay and of fractional times
  // checked against integer bounds.
  Ratio& operator+=(const Ratio& rhs) {
    std::int64_t sum;
    if (den_ == 1 && rhs.den_ == 1) {
      if (!__builtin_add_overflow(num_, rhs.num_, &sum)) {
        num_ = sum;
        return *this;
      }
    } else if (den_ == 1 || rhs.den_ == 1) {
      std::int64_t lhs_scaled, rhs_scaled;
      if (!__builtin_mul_overflow(num_, rhs.den_, &lhs_scaled) &&
          !__builtin_mul_overflow(rhs.num_, den_, &rhs_scaled) &&
          !__builtin_add_overflow(lhs_scaled, rhs_scaled, &sum)) {
        num_ = sum;
        den_ *= rhs.den_;
        return *this;
      }
    }
    return add_slow(rhs);
  }

  Ratio& operator-=(const Ratio& rhs) {
    std::int64_t diff;
    if (den_ == 1 && rhs.den_ == 1) {
      if (!__builtin_sub_overflow(num_, rhs.num_, &diff)) {
        num_ = diff;
        return *this;
      }
    } else if (den_ == 1 || rhs.den_ == 1) {
      std::int64_t lhs_scaled, rhs_scaled;
      if (!__builtin_mul_overflow(num_, rhs.den_, &lhs_scaled) &&
          !__builtin_mul_overflow(rhs.num_, den_, &rhs_scaled) &&
          !__builtin_sub_overflow(lhs_scaled, rhs_scaled, &diff)) {
        num_ = diff;
        den_ *= rhs.den_;
        return *this;
      }
    }
    return sub_slow(rhs);
  }

  Ratio& operator*=(const Ratio& rhs) {
    if (den_ == 1 && rhs.den_ == 1) {
      std::int64_t prod;
      if (!__builtin_mul_overflow(num_, rhs.num_, &prod)) {
        num_ = prod;
        return *this;
      }
    }
    return mul_slow(rhs);
  }

  // Terminates on division by zero.
  Ratio& operator/=(const Ratio& rhs);

  friend Ratio operator+(Ratio lhs, const Ratio& rhs) { return lhs += rhs; }
  friend Ratio operator-(Ratio lhs, const Ratio& rhs) { return lhs -= rhs; }
  friend Ratio operator*(Ratio lhs, const Ratio& rhs) { return lhs *= rhs; }
  friend Ratio operator/(Ratio lhs, const Ratio& rhs) { return lhs /= rhs; }

  friend bool operator==(const Ratio& a, const Ratio& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  // Denominators are always positive, so equal denominators (the common
  // shape: integers, or times on one period grid) compare by numerator
  // alone; only mixed shapes pay the 128-bit cross-multiply.
  friend std::strong_ordering operator<=>(const Ratio& a,
                                          const Ratio& b) noexcept {
    if (a.den_ == b.den_) return a.num_ <=> b.num_;
    const __int128 lhs = static_cast<__int128>(a.num_) * b.den_;
    const __int128 rhs = static_cast<__int128>(b.num_) * a.den_;
    if (lhs < rhs) return std::strong_ordering::less;
    if (lhs > rhs) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  // "3", "7/2", "-1/3".
  std::string to_string() const;

 private:
  Ratio& add_slow(const Ratio& rhs);
  Ratio& sub_slow(const Ratio& rhs);
  Ratio& mul_slow(const Ratio& rhs);

  std::int64_t num_;
  std::int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const Ratio& r);

inline Ratio min(const Ratio& a, const Ratio& b) { return a < b ? a : b; }
inline Ratio max(const Ratio& a, const Ratio& b) { return a < b ? b : a; }
Ratio abs(const Ratio& r);

// Model time and durations share the representation; the aliases mark intent.
using Time = Ratio;
using Duration = Ratio;

}  // namespace sesp
