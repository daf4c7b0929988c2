#pragma once
// Parameterized IEEE-754-style minifloat: 1 sign bit, `we` exponent bits,
// `wf` fraction bits (total n = 1 + we + wf). Gradual underflow (subnormals)
// and round-to-nearest-even, exactly as assumed by the paper's floating-point
// EMAC (Fig. 4):
//
//   bias   = 2^(we-1) - 1
//   expmax = 2^we - 2                    (all-ones exponent is Inf/NaN)
//   max    = 2^(expmax-bias) * (2 - 2^-wf)
//   min    = 2^(1-bias) * 2^-wf          (smallest positive subnormal)

#include <cstdint>
#include <string>

#include "numeric/unpacked.hpp"

namespace dp::num {

/// Behaviour on overflow when encoding.
enum class FloatOverflow {
  kToInfinity,  ///< IEEE default: round-to-nearest overflows to infinity
  kSaturate,    ///< clip at the maximum finite magnitude (EMAC behaviour)
};

struct FloatFormat {
  int we;  ///< exponent width, 2 <= we <= 8
  int wf;  ///< fraction width, 1 <= wf <= 52 (n = 1 + we + wf <= 32)

  constexpr bool operator==(const FloatFormat&) const = default;

  int n() const { return 1 + we + wf; }
  int bias() const { return (1 << (we - 1)) - 1; }
  int expmax() const { return (1 << we) - 2; }      ///< largest finite biased exp
  std::int64_t emax() const { return expmax() - bias(); }
  std::int64_t emin() const { return 1 - bias(); }  ///< smallest normal scale
  double max_value() const;
  double min_value() const;  ///< smallest positive subnormal
  /// log10(max/min), the dynamic-range measure used in Fig. 6.
  double dynamic_range() const;
  std::uint32_t mask() const {
    return n() >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << n()) - 1);
  }
  std::string name() const;  ///< e.g. "float<8;we=4>"
};

/// Throws std::invalid_argument on out-of-range parameters.
void validate(const FloatFormat& fmt);

/// Raw field view.
struct FloatFields {
  bool sign = false;
  std::uint32_t exponent = 0;  ///< biased, we bits
  std::uint64_t fraction = 0;  ///< wf bits
};

FloatFields float_fields(std::uint32_t bits, const FloatFormat& fmt);
std::uint32_t float_pack_fields(const FloatFields& f, const FloatFormat& fmt);

/// Hardware-frame decode used by the EMAC datapaths: significand with the
/// hidden bit applied (clear for subnormals, so sig == 0 iff the value is a
/// signed zero) and the effective biased exponent (subnormals read as 1).
/// value = (-1)^sign * sig * 2^(exp - bias - wf). Inf/NaN patterns decode as
/// huge finite values — they are outside the EMAC input contract.
struct FloatRawDecode {
  bool sign = false;
  std::int32_t exp = 0;
  std::uint64_t sig = 0;
};
FloatRawDecode float_decode_raw(std::uint32_t bits, const FloatFormat& fmt);

/// Decode. kZero/kFinite/kInf/kNaN possible; sign of zero/inf preserved in
/// `v.neg` even for non-finite classes.
Decoded float_decode(std::uint32_t bits, const FloatFormat& fmt);

/// Encode a finite value with RNE; `neg` used for signed zero on underflow.
std::uint32_t float_encode(const Unpacked& value, const FloatFormat& fmt,
                           FloatOverflow overflow = FloatOverflow::kToInfinity);

double float_to_double(std::uint32_t bits, const FloatFormat& fmt);
std::uint32_t float_from_double(double x, const FloatFormat& fmt,
                                FloatOverflow overflow = FloatOverflow::kToInfinity);

// Arithmetic on raw patterns (IEEE semantics: NaN propagates, Inf arithmetic,
// signed zeros). Rounds to nearest even.
std::uint32_t float_add(std::uint32_t a, std::uint32_t b, const FloatFormat& fmt);
std::uint32_t float_mul(std::uint32_t a, std::uint32_t b, const FloatFormat& fmt);
std::uint32_t float_neg(std::uint32_t a, const FloatFormat& fmt);

std::uint32_t float_zero(const FloatFormat& fmt, bool neg = false);
std::uint32_t float_inf(const FloatFormat& fmt, bool neg = false);
std::uint32_t float_nan(const FloatFormat& fmt);

}  // namespace dp::num
