#pragma once
// int64 interval arithmetic for the peek/array bounds pass.
//
// An Interval approximates the set of values an integer expression can take.
// Its endpoints are int64 values; INT64_MIN/MAX print as -inf/+inf.  The
// runtime's int64 arithmetic wraps (Java long), so an operation whose
// result can leave int64 at some endpoint can take any value: it is top.
// Pop counts only grow and never wrap, so they add with iv_count_add, which
// saturates instead.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace sit::analysis {

struct Interval {
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  std::int64_t lo{kMin};
  std::int64_t hi{kMax};

  static Interval top() { return {kMin, kMax}; }
  static Interval exact(std::int64_t v) { return {v, v}; }
  static Interval range(std::int64_t lo, std::int64_t hi) { return {lo, hi}; }
  static Interval at_least(std::int64_t lo) { return {lo, kMax}; }

  [[nodiscard]] bool is_top() const { return lo == kMin && hi == kMax; }
  [[nodiscard]] bool is_exact() const { return lo == hi; }

  [[nodiscard]] bool contains(std::int64_t v) const { return lo <= v && v <= hi; }
  [[nodiscard]] bool within(std::int64_t l, std::int64_t h) const {
    return lo >= l && hi <= h;
  }

  [[nodiscard]] std::string str() const {
    const std::string l = lo == kMin ? "-inf" : std::to_string(lo);
    const std::string h = hi == kMax ? "+inf" : std::to_string(hi);
    return "[" + l + ", " + h + "]";
  }

  [[nodiscard]] Interval join(const Interval& o) const {
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }

  // Widen `this` toward `o`: any endpoint that moved jumps to infinity.
  [[nodiscard]] Interval widen(const Interval& o) const {
    return {o.lo < lo ? kMin : lo, o.hi > hi ? kMax : hi};
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }
};

namespace detail {

inline std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    return (a > 0) ? Interval::kMax : Interval::kMin;
  }
  return r;
}

}  // namespace detail

// a + b for counts: an infinite endpoint stays infinite, and a sum past
// the int64 range saturates.
inline Interval iv_count_add(const Interval& a, const Interval& b) {
  const std::int64_t lo = (a.lo == Interval::kMin || b.lo == Interval::kMin)
                              ? Interval::kMin
                              : detail::sat_add(a.lo, b.lo);
  const std::int64_t hi = (a.hi == Interval::kMax || b.hi == Interval::kMax)
                              ? Interval::kMax
                              : detail::sat_add(a.hi, b.hi);
  return {lo, hi};
}

// a + b, a - b, a * b and -a on int64 values: top when any result can
// overflow, since the runtime then wraps.
inline Interval iv_add(const Interval& a, const Interval& b) {
  Interval r;
  if (__builtin_add_overflow(a.lo, b.lo, &r.lo) ||
      __builtin_add_overflow(a.hi, b.hi, &r.hi)) {
    return Interval::top();
  }
  return r;
}

inline Interval iv_sub(const Interval& a, const Interval& b) {
  Interval r;
  if (__builtin_sub_overflow(a.lo, b.hi, &r.lo) ||
      __builtin_sub_overflow(a.hi, b.lo, &r.hi)) {
    return Interval::top();
  }
  return r;
}

inline Interval iv_neg(const Interval& a) {
  return iv_sub(Interval::exact(0), a);
}

inline Interval iv_mul(const Interval& a, const Interval& b) {
  if (a.is_top() || b.is_top()) return Interval::top();
  std::int64_t c[4];
  if (__builtin_mul_overflow(a.lo, b.lo, &c[0]) ||
      __builtin_mul_overflow(a.lo, b.hi, &c[1]) ||
      __builtin_mul_overflow(a.hi, b.lo, &c[2]) ||
      __builtin_mul_overflow(a.hi, b.hi, &c[3])) {
    return Interval::top();
  }
  return {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
}

// |a|: abs(INT64_MIN) wraps to INT64_MIN, so an interval holding it is top.
inline Interval iv_abs(const Interval& a) {
  if (a.lo >= 0) return a;
  if (a.hi <= 0) return iv_neg(a);
  if (a.lo == Interval::kMin) return Interval::top();
  return Interval::range(0, std::max(-a.lo, a.hi));
}

// Truncating division by a *positive constant* d: monotone, so endpoints map
// to endpoints.  Any other divisor shape returns top.
inline Interval iv_div_pos(const Interval& a, std::int64_t d) {
  if (d <= 0) return Interval::top();
  const std::int64_t lo = a.lo == Interval::kMin ? Interval::kMin : a.lo / d;
  const std::int64_t hi = a.hi == Interval::kMax ? Interval::kMax : a.hi / d;
  return {lo, hi};
}

// a % d for constant d > 0.  For a >= 0 the result is [0, d-1] (tighter if `a`
// is already within one period); for possibly-negative `a`, C truncation
// gives (-(d-1)) .. (d-1).
inline Interval iv_mod_pos(const Interval& a, std::int64_t d) {
  if (d <= 0) return Interval::top();
  if (a.lo >= 0) {
    if (a.hi < d) return a;  // already reduced
    return {0, d - 1};
  }
  return {-(d - 1), d - 1};
}

// a & b: if either operand is provably non-negative, the result is bounded by
// [0, min(hi of the non-negative sides)] -- the classic bitmask rule, which is
// what proves `x & 15` in-bounds for a 16-entry sbox.
inline Interval iv_band(const Interval& a, const Interval& b) {
  const bool an = a.lo >= 0;
  const bool bn = b.lo >= 0;
  if (!an && !bn) return Interval::top();
  std::int64_t hi = Interval::kMax;
  if (an) hi = std::min(hi, a.hi);
  if (bn) hi = std::min(hi, b.hi);
  return {0, hi};
}

// a << s for constant s in [0, 62]: monotone on non-negative values that
// stay below 2^63.  A shift that can overflow wraps at run time (and an
// infinite endpoint may stand for any large value), so it is top.
inline Interval iv_shl_const(const Interval& a, std::int64_t s) {
  if (s < 0 || s > 62 || a.lo < 0 || a.hi > (Interval::kMax >> s)) {
    return Interval::top();
  }
  return {a.lo << s, a.hi << s};
}

// a >> s for constant s in [0, 63]: monotone on non-negative values.
inline Interval iv_shr_const(const Interval& a, std::int64_t s) {
  if (s < 0 || s > 63 || a.lo < 0) return Interval::top();
  const std::int64_t hi =
      a.hi == Interval::kMax ? Interval::kMax : (a.hi >> s);
  return {a.lo >> s, hi};
}

inline Interval iv_min(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

inline Interval iv_max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

}  // namespace sit::analysis
