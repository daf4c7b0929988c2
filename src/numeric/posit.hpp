#pragma once
// Posit (Type III unum) codec, runtime-parameterized by (n, es), with the
// once-rounded add and multiply of the naive MAC baseline (emac::naive_mac)
// and the sign, order and next/prior helpers.
//
// Implements the encoding of Gustafson & Yonemoto, "Beating Floating Point at
// Its Own Game" (2017) as used by the Deep Positron paper: a sign bit, a
// run-length-encoded regime, up to `es` exponent bits and the remaining
// fraction bits. Values:
//
//   x = (-1)^s * (2^(2^es))^k * 2^e * 1.f      (eq. (2) of the paper)
//
// Special patterns: 00...0 = zero, 10...0 = NaR (Not a Real).
// Rounding is round-to-nearest, ties to even, via the posit-standard
// bit-string construction (as in SoftPosit/universal). Note that where the
// exponent field is truncated by a long regime, adjacent posits are more
// than 2x apart and the bit-string rule places the rounding threshold at
// the *geometric* mean of the neighbours (see tests/numeric/rounding_test).
// Posits saturate at maxpos/minpos and never round a nonzero value to zero
// or NaR.

#include <cstdint>
#include <string>

#include "numeric/unpacked.hpp"

namespace dp::num {

/// Static description of a posit format.
struct PositFormat {
  int n;   ///< total width in bits, 2 <= n <= 32
  int es;  ///< exponent field width, 0 <= es <= 5

  constexpr bool operator==(const PositFormat&) const = default;

  /// useed = 2^(2^es); regime steps scale by this factor.
  double useed() const;
  /// Scale (log2) of maxpos: (n-2) * 2^es.
  std::int64_t max_scale() const { return static_cast<std::int64_t>(n - 2) << es; }
  double maxpos() const;  ///< largest finite value = useed^(n-2)
  double minpos() const;  ///< smallest positive value = useed^-(n-2)
  /// log10(maxpos/minpos), the dynamic range measure used in Fig. 6.
  double dynamic_range() const;

  std::uint32_t zero_pattern() const { return 0; }
  std::uint32_t nar_pattern() const { return std::uint32_t{1} << (n - 1); }
  std::uint32_t mask() const {
    return n >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << n) - 1);
  }
  std::string name() const;  ///< e.g. "posit<8,2>"
};

/// Throws std::invalid_argument unless 2 <= n <= 32 and 0 <= es <= 5.
void validate(const PositFormat& fmt);

/// Raw field view of a posit pattern (useful for tests and the EMAC decode).
struct PositFields {
  bool sign = false;
  std::int32_t k = 0;         ///< regime value
  std::uint32_t exponent = 0; ///< es-bit exponent (zero-padded if truncated)
  std::uint64_t fraction = 0; ///< fraction bits, MSB-aligned to nfrac
  int nfrac = 0;              ///< number of fraction bits present
  int regime_len = 0;         ///< regime run length incl. terminator (if any)
};

/// Decode to classification + unpacked value. `bits` above n are ignored.
Decoded posit_decode(std::uint32_t bits, const PositFormat& fmt);

/// Extract raw fields (pattern must not be zero/NaR).
PositFields posit_fields(std::uint32_t bits, const PositFormat& fmt);

/// Hardware-frame decode used by the EMAC datapaths: value =
/// (-1)^sign * sig * 2^(sf - (P-1)) with P = n - 2 - es the significand
/// register width, sig in [2^(P-1), 2^P) (hidden bit set) and sf the fused
/// {regime, exponent} scale factor.
struct PositRawDecode {
  bool sign = false;
  std::int32_t sf = 0;
  std::uint64_t sig = 0;
};

/// Decode a finite pattern into the hardware frame. Returns false for the
/// zero pattern; the NaR pattern must be screened by the caller (it has no
/// fields). Requires n >= es + 4 so the significand register is non-empty.
bool posit_decode_raw(std::uint32_t bits, const PositFormat& fmt, PositRawDecode& out);

/// Encode with round-to-nearest-even; saturates at maxpos/minpos.
/// A zero Decoded (cls == kZero) encodes to 0; NaR encodes to the NaR pattern.
std::uint32_t posit_encode(const Decoded& value, const PositFormat& fmt);

/// Shorthand: encode an unpacked finite nonzero value.
std::uint32_t posit_encode(const Unpacked& value, const PositFormat& fmt);

double posit_to_double(std::uint32_t bits, const PositFormat& fmt);
std::uint32_t posit_from_double(double x, const PositFormat& fmt);

// Arithmetic on raw patterns (format-aware). NaR propagates.
std::uint32_t posit_add(std::uint32_t a, std::uint32_t b, const PositFormat& fmt);
std::uint32_t posit_mul(std::uint32_t a, std::uint32_t b, const PositFormat& fmt);
std::uint32_t posit_neg(std::uint32_t a, const PositFormat& fmt);
std::uint32_t posit_abs(std::uint32_t a, const PositFormat& fmt);

/// Total order: posit patterns compare as n-bit two's-complement integers
/// (NaR is the most negative and sorts below all reals).
bool posit_less(std::uint32_t a, std::uint32_t b, const PositFormat& fmt);

/// Next representable value up/down in the total order (saturates at extremes,
/// skipping NaR).
std::uint32_t posit_next(std::uint32_t a, const PositFormat& fmt);
std::uint32_t posit_prior(std::uint32_t a, const PositFormat& fmt);

}  // namespace dp::num
