#include "util/ratio.hpp"

#include <numeric>
#include <ostream>

namespace sesp {

namespace {

[[noreturn]] void fail(const char* what) { throw ArithmeticOverflow(what); }

std::int64_t checked_narrow(__int128 v, const char* what) {
  if (v > INT64_MAX || v < INT64_MIN) fail(what);
  return static_cast<std::int64_t>(v);
}

}  // namespace

Ratio::Ratio(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  if (den_ == 1) return;  // already normalized; the dominant call shape
  if (den_ == 0) fail("zero denominator");
  if (den_ < 0) {
    if (num_ == INT64_MIN || den_ == INT64_MIN) fail("overflow negating");
    num_ = -num_;
    den_ = -den_;
  }
  // The gcd of the magnitudes, taken unsigned: std::gcd on int64 needs
  // |num| representable, and |INT64_MIN| is not. g <= den, so it narrows.
  const std::uint64_t mag = num_ < 0 ? 0 - static_cast<std::uint64_t>(num_)
                                     : static_cast<std::uint64_t>(num_);
  const auto g = static_cast<std::int64_t>(
      std::gcd(mag, static_cast<std::uint64_t>(den_)));
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

double Ratio::to_double() const noexcept {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::int64_t Ratio::floor() const noexcept {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) --q;
  return q;
}

std::int64_t Ratio::ceil() const noexcept {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) ++q;
  return q;
}

Ratio Ratio::operator-() const {
  if (num_ == INT64_MIN) fail("overflow negating");
  Ratio r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

namespace {

// Knuth TAOCP 4.5.1 reduced addition, sign = +1 or -1 for subtraction. The
// only gcds taken are gcd(d1, d2) and a gcd against that — both 64-bit —
// instead of the old 128-bit Euclid loop over the raw cross-products.
void combine(std::int64_t& num, std::int64_t& den, const Ratio& rhs,
             int sign, const char* what) {
  const std::int64_t rn = rhs.num();
  const std::int64_t rd = rhs.den();
  if (den == rd) {
    // Same-denominator fast path: times on one period grid stay there.
    const __int128 n = sign > 0 ? static_cast<__int128>(num) + rn
                                : static_cast<__int128>(num) - rn;
    const std::int64_t g = std::gcd(static_cast<std::int64_t>(n % den), den);
    num = checked_narrow(n / g, what);
    den = den / g;
    return;
  }
  const std::int64_t g0 = std::gcd(den, rd);
  if (g0 == 1) {
    // Coprime denominators: the result is already in lowest terms.
    const __int128 a = static_cast<__int128>(num) * rd;
    const __int128 b = static_cast<__int128>(rn) * den;
    num = checked_narrow(sign > 0 ? a + b : a - b, what);
    den = checked_narrow(static_cast<__int128>(den) * rd, what);
    return;
  }
  const __int128 a = static_cast<__int128>(num) * (rd / g0);
  const __int128 b = static_cast<__int128>(rn) * (den / g0);
  const __int128 t = sign > 0 ? a + b : a - b;
  const std::int64_t g1 = std::gcd(static_cast<std::int64_t>(t % g0), g0);
  num = checked_narrow(t / g1, what);
  den = checked_narrow(static_cast<__int128>(den / g0) * (rd / g1), what);
}

}  // namespace

Ratio& Ratio::add_slow(const Ratio& rhs) {
  combine(num_, den_, rhs, +1, "overflow in +");
  return *this;
}

Ratio& Ratio::sub_slow(const Ratio& rhs) {
  combine(num_, den_, rhs, -1, "overflow in -");
  return *this;
}

Ratio& Ratio::mul_slow(const Ratio& rhs) {
  // Cross-reduce first to keep intermediates small.
  const std::int64_t g1 = std::gcd(num_, rhs.den_);
  const std::int64_t g2 = std::gcd(rhs.num_, den_);
  const __int128 n =
      static_cast<__int128>(num_ / g1) * (rhs.num_ / g2);
  const __int128 d =
      static_cast<__int128>(den_ / g2) * (rhs.den_ / g1);
  num_ = checked_narrow(n, "overflow in *");
  den_ = checked_narrow(d, "overflow in *");
  return *this;
}

Ratio& Ratio::operator/=(const Ratio& rhs) {
  if (rhs.num_ == 0) fail("division by zero");
  Ratio inv;
  if (rhs.num_ < 0) {
    if (rhs.num_ == INT64_MIN || rhs.den_ == INT64_MIN) fail("overflow in /");
    inv.num_ = -rhs.den_;
    inv.den_ = -rhs.num_;
  } else {
    inv.num_ = rhs.den_;
    inv.den_ = rhs.num_;
  }
  return *this *= inv;
}

std::string Ratio::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Ratio& r) {
  return os << r.to_string();
}

Ratio abs(const Ratio& r) { return r.is_negative() ? -r : r; }

}  // namespace sesp
