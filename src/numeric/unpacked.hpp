#pragma once
// Shared soft-float core used by the posit and minifloat codecs.
//
// Every finite nonzero value is unpacked to sign * 2^scale * (frac / 2^63)
// with frac normalized to [2^63, 2^64), i.e. the hidden bit sits at bit 63.
// Arithmetic on unpacked values is exact up to an explicit sticky flag that
// records whether any nonzero bits were discarded; the format-specific
// encoders consume (value, sticky) and perform a single round-to-nearest-even.

#include <cstdint>

namespace dp::num {

/// A finite nonzero value: (-1)^neg * 2^scale * frac / 2^63, frac in [2^63, 2^64).
struct Unpacked {
  bool neg = false;
  std::int64_t scale = 0;     ///< unbiased exponent of the hidden bit
  std::uint64_t frac = 0;     ///< normalized fraction, hidden bit at bit 63
  bool sticky = false;        ///< true if discarded low bits were nonzero
};

/// Classification of a decoded operand. Posits use kZero/kFinite/kNaR;
/// IEEE-style minifloats additionally use kInf and kNaN.
enum class ValueClass { kZero, kFinite, kNaR, kInf, kNaN };

/// Decoded operand: class + payload (payload valid only when finite).
struct Decoded {
  ValueClass cls = ValueClass::kZero;
  Unpacked v;
};

/// Exact product of two unpacked values (sticky propagates).
Unpacked mul_unpacked(const Unpacked& a, const Unpacked& b);

/// Exact (sticky-tracked) sum of two unpacked values.
/// Returns a zero fraction (frac == 0) if the result is exactly zero.
Unpacked add_unpacked(const Unpacked& a, const Unpacked& b);

/// Unpack a finite nonzero double exactly. Precondition: finite, nonzero.
Unpacked unpack_double(double x);

/// Pack to double with round-to-nearest-even (exact when representable).
double pack_double(const Unpacked& u);

}  // namespace dp::num
