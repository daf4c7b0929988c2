#pragma once
// Signed fixed-point Q(n-q).q arithmetic with saturation, matching the
// paper's fixed-point EMAC operand format: q fraction bits and n-q integer
// bits (one of which is the sign). value = raw / 2^q with raw an n-bit
// two's-complement integer.

#include <cstdint>
#include <string>

namespace dp::num {

struct FixedFormat {
  int n;  ///< total bits (2..32), two's complement
  int q;  ///< fraction bits (0..n-1)

  constexpr bool operator==(const FixedFormat&) const = default;

  std::int64_t raw_max() const { return (std::int64_t{1} << (n - 1)) - 1; }
  std::int64_t raw_min() const { return -(std::int64_t{1} << (n - 1)); }
  double max_value() const;      ///< largest representable value
  double min_positive() const;   ///< smallest positive value = 2^-q
  double resolution() const { return min_positive(); }
  /// log10(max/min-positive), the dynamic-range measure used in Fig. 6.
  double dynamic_range() const;
  std::uint32_t mask() const {
    return n >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << n) - 1);
  }
  std::string name() const;  ///< e.g. "fixed<8;q=4>"
};

void validate(const FixedFormat& fmt);

/// Signed integer value of an n-bit pattern.
std::int64_t fixed_raw(std::uint32_t bits, const FixedFormat& fmt);
/// Pattern for a (saturated) signed integer value.
std::uint32_t fixed_from_raw(std::int64_t raw, const FixedFormat& fmt);

double fixed_to_double(std::uint32_t bits, const FixedFormat& fmt);
/// Convert rounding to nearest, ties to even; saturates at the representable
/// range.
std::uint32_t fixed_from_double(double x, const FixedFormat& fmt);

// Saturating arithmetic on raw patterns.
std::uint32_t fixed_add(std::uint32_t a, std::uint32_t b, const FixedFormat& fmt);
/// Product keeps q fraction bits (rounded to nearest even), saturating.
std::uint32_t fixed_mul(std::uint32_t a, std::uint32_t b, const FixedFormat& fmt);
std::uint32_t fixed_neg(std::uint32_t a, const FixedFormat& fmt);

}  // namespace dp::num
