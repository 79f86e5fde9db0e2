// Overflow-aware integer helpers used by the scheduling analysis.
//
// Hyperperiods of co-prime millisecond periods overflow int64 easily, and
// utilization comparisons must not suffer floating-point rounding (a task
// set with U exactly 1 sits on the feasibility boundary). Both concerns
// are handled here with saturating/128-bit arithmetic.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace rtft {

/// a*b, or nullopt on int64 overflow.
[[nodiscard]] constexpr std::optional<std::int64_t> checked_mul(
    std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// a+b, or nullopt on int64 overflow.
[[nodiscard]] constexpr std::optional<std::int64_t> checked_add(
    std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Least common multiple of two positive values, nullopt on overflow.
[[nodiscard]] constexpr std::optional<std::int64_t> checked_lcm(
    std::int64_t a, std::int64_t b) {
  RTFT_EXPECTS(a > 0 && b > 0, "lcm arguments must be positive");
  const std::int64_t g = std::gcd(a, b);
  return checked_mul(a / g, b);
}

/// Hyperperiod (lcm of all periods) of a set of positive durations;
/// nullopt if it does not fit in int64 nanoseconds.
[[nodiscard]] inline std::optional<Duration> hyperperiod(
    std::span<const Duration> periods) {
  std::int64_t acc = 1;
  for (Duration p : periods) {
    RTFT_EXPECTS(p.is_positive(), "periods must be positive");
    auto next = checked_lcm(acc, p.count());
    if (!next) return std::nullopt;
    acc = *next;
  }
  return Duration::ns(acc);
}

namespace detail {
/// 128-bit integer via the GCC/Clang extension; __extension__ silences
/// -Wpedantic, and the arithmetic below only needs this one alias.
__extension__ using Int128 = __int128;

[[nodiscard]] constexpr Int128 gcd128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  while (b != 0) {
    const Int128 r = a % b;
    a = b;
    b = r;
  }
  return a;
}
}  // namespace detail

/// Exact running sum of cost/period fractions, compared against 1.
///
/// Accumulates the fraction in 128-bit arithmetic (gcd-reduced at every
/// step); if the common denominator still overflows — which needs many
/// near-coprime nanosecond-scale periods — it falls back to the long
/// double sum of every term added, with a tight boundary band, so a set
/// can only be classified "exactly 1" spuriously if its utilization is
/// within 1e-15 of 1.
class LoadSum {
 public:
  void add(std::int64_t cost, std::int64_t period) {
    RTFT_EXPECTS(period > 0, "periods must be positive");
    RTFT_EXPECTS(cost >= 0, "costs must be non-negative");
    approx_ += static_cast<long double>(cost) /
               static_cast<long double>(period);
    if (!exact_) return;
    detail::Int128 c = cost;
    detail::Int128 t = period;
    const detail::Int128 g0 = detail::gcd128(c, t);
    if (g0 > 1) {
      c /= g0;
      t /= g0;
    }
    // num/den += c/t, overflow-checked.
    detail::Int128 nt = 0;
    detail::Int128 cd = 0;
    detail::Int128 sum = 0;
    detail::Int128 nd = 0;
    if (__builtin_mul_overflow(num_, t, &nt) ||
        __builtin_mul_overflow(c, den_, &cd) ||
        __builtin_add_overflow(nt, cd, &sum) ||
        __builtin_mul_overflow(den_, t, &nd)) {
      exact_ = false;
      return;
    }
    num_ = sum;
    den_ = nd;
    const detail::Int128 g = detail::gcd128(num_, den_);
    if (g > 1) {
      num_ /= g;
      den_ /= g;
    }
  }

  /// +1 if the sum is above 1, 0 if equal, -1 if below.
  [[nodiscard]] int compare_to_one() const {
    if (exact_) {
      if (num_ > den_) return 1;
      if (num_ == den_) return 0;
      return -1;
    }
    if (approx_ > 1.0L + 1e-15L) return 1;
    if (approx_ < 1.0L - 1e-15L) return -1;
    return 0;
  }

 private:
  detail::Int128 num_ = 0;
  detail::Int128 den_ = 1;
  bool exact_ = true;
  long double approx_ = 0.0L;
};

}  // namespace rtft
