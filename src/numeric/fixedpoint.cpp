#include "numeric/fixedpoint.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dp::num {

void validate(const FixedFormat& fmt) {
  if (fmt.n < 2 || fmt.n > 32) throw std::invalid_argument("FixedFormat: n must be in [2,32]");
  if (fmt.q < 0 || fmt.q >= fmt.n) {
    throw std::invalid_argument("FixedFormat: q must be in [0, n-1]");
  }
}

double FixedFormat::max_value() const {
  return static_cast<double>(raw_max()) / std::ldexp(1.0, q);
}

double FixedFormat::min_positive() const { return std::ldexp(1.0, -q); }

double FixedFormat::dynamic_range() const { return std::log10(max_value() / min_positive()); }

std::string FixedFormat::name() const {
  return "fixed<" + std::to_string(n) + ";q=" + std::to_string(q) + ">";
}

std::int64_t fixed_raw(std::uint32_t bits, const FixedFormat& fmt) {
  validate(fmt);
  bits &= fmt.mask();
  std::int64_t v = bits;
  if ((bits >> (fmt.n - 1)) & 1u) v -= std::int64_t{1} << fmt.n;
  return v;
}

std::uint32_t fixed_from_raw(std::int64_t raw, const FixedFormat& fmt) {
  validate(fmt);
  raw = std::clamp(raw, fmt.raw_min(), fmt.raw_max());
  return static_cast<std::uint32_t>(raw) & fmt.mask();
}

double fixed_to_double(std::uint32_t bits, const FixedFormat& fmt) {
  return static_cast<double>(fixed_raw(bits, fmt)) / std::ldexp(1.0, fmt.q);
}

std::uint32_t fixed_from_double(double x, const FixedFormat& fmt) {
  validate(fmt);
  if (std::isnan(x)) throw std::domain_error("fixed_from_double: NaN");
  const double scaled = std::ldexp(x, fmt.q);
  const double fl = std::floor(scaled);
  const double frac = scaled - fl;
  double r;
  if (frac < 0.5) {
    r = fl;
  } else if (frac > 0.5) {
    r = fl + 1.0;
  } else {
    r = (std::fmod(fl, 2.0) == 0.0) ? fl : fl + 1.0;  // tie to even
  }
  if (r > static_cast<double>(fmt.raw_max())) return fixed_from_raw(fmt.raw_max(), fmt);
  if (r < static_cast<double>(fmt.raw_min())) return fixed_from_raw(fmt.raw_min(), fmt);
  return fixed_from_raw(static_cast<std::int64_t>(r), fmt);
}

std::uint32_t fixed_add(std::uint32_t a, std::uint32_t b, const FixedFormat& fmt) {
  return fixed_from_raw(fixed_raw(a, fmt) + fixed_raw(b, fmt), fmt);
}

std::uint32_t fixed_mul(std::uint32_t a, std::uint32_t b, const FixedFormat& fmt) {
  const std::int64_t prod = fixed_raw(a, fmt) * fixed_raw(b, fmt);  // 2n bits, q*2 frac
  std::int64_t shifted = prod >> fmt.q;  // arithmetic shift = floor
  if (fmt.q > 0) {
    const std::int64_t half = std::int64_t{1} << (fmt.q - 1);
    const std::int64_t low = prod & ((std::int64_t{1} << fmt.q) - 1);
    if (low > half || (low == half && (shifted & 1))) ++shifted;
  }
  return fixed_from_raw(shifted, fmt);
}

std::uint32_t fixed_neg(std::uint32_t a, const FixedFormat& fmt) {
  return fixed_from_raw(-fixed_raw(a, fmt), fmt);
}

}  // namespace dp::num
