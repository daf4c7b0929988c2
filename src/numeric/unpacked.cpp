#include "numeric/unpacked.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace dp::num {

namespace {

using u128 = unsigned __int128;

/// Result of normalizing a nonzero 128-bit magnitude: `frac` holds the top
/// 64 bits (MSB at bit 63), `msb` is the original position of the MSB, and
/// `sticky` records whether dropped low bits were nonzero.
struct Norm128 {
  std::uint64_t frac;
  int msb;
  bool sticky;
};

Norm128 normalize128(u128 mag) {
  if (mag == 0) throw std::logic_error("normalize128: zero magnitude");
  int msb = 127;
  while (((mag >> msb) & 1) == 0) --msb;
  bool sticky = false;
  std::uint64_t frac;
  if (msb >= 63) {
    const int drop = msb - 63;
    if (drop > 0) sticky = (mag & ((u128{1} << drop) - 1)) != 0;
    frac = static_cast<std::uint64_t>(mag >> drop);
  } else {
    frac = static_cast<std::uint64_t>(mag) << (63 - msb);
  }
  return {frac, msb, sticky};
}

}  // namespace

Unpacked mul_unpacked(const Unpacked& a, const Unpacked& b) {
  // fa, fb in [2^63, 2^64) => prod in [2^126, 2^128).
  const u128 prod = static_cast<u128>(a.frac) * b.frac;
  const bool carry = (prod >> 127) & 1;
  const int drop = carry ? 64 : 63;
  Unpacked out;
  out.neg = a.neg != b.neg;
  out.frac = static_cast<std::uint64_t>(prod >> drop);
  out.scale = a.scale + b.scale + (carry ? 1 : 0);
  out.sticky = a.sticky || b.sticky || (prod & ((u128{1} << drop) - 1)) != 0;
  return out;
}

Unpacked add_unpacked(const Unpacked& a, const Unpacked& b) {
  // Operands are placed in a 128-bit frame with the hidden bit at 126,
  // leaving bit 127 as carry headroom and 63 bits of alignment room below.
  const bool a_is_big = a.scale > b.scale || (a.scale == b.scale && a.frac >= b.frac);
  const Unpacked& big = a_is_big ? a : b;
  const Unpacked& small = a_is_big ? b : a;

  const std::int64_t d = big.scale - small.scale;
  const u128 mag_big = static_cast<u128>(big.frac) << 63;
  u128 mag_small = 0;
  bool lost = false;  // nonzero bits of `small` shifted below bit 0
  if (d <= 126) {
    const u128 full = static_cast<u128>(small.frac) << 63;
    mag_small = full >> d;
    if (d > 0) lost = (full & ((u128{1} << d) - 1)) != 0;
  } else {
    lost = small.frac != 0;
  }
  const bool sticky_in = a.sticky || b.sticky;

  Unpacked out;
  if (big.neg == small.neg) {
    // Magnitudes add; `lost` bits would only increase the true magnitude, so
    // the computed value is a truncation of the true value, as required.
    const Norm128 n = normalize128(mag_big + mag_small);
    out.neg = big.neg;
    out.frac = n.frac;
    out.scale = big.scale + (n.msb - 126);
    out.sticky = sticky_in || lost || n.sticky;
    return out;
  }

  // Magnitudes subtract. If alignment discarded bits of `small`, the true
  // difference is strictly smaller than mag_big - mag_small; borrow one ULP
  // (at bit 0) so the computed value is again a truncation of the truth.
  u128 diff = mag_big - mag_small;
  if (lost) {
    // diff >= 2^126 - 2^62 here (lost requires d > 0, i.e. mag_small small),
    // so the borrow cannot underflow to zero.
    diff -= 1;
  }
  if (diff == 0) {
    return Unpacked{false, 0, 0, sticky_in};
  }
  const Norm128 n = normalize128(diff);
  out.neg = big.neg;
  out.frac = n.frac;
  out.scale = big.scale + (n.msb - 126);
  out.sticky = sticky_in || lost || n.sticky;
  return out;
}

Unpacked unpack_double(double x) {
  if (x == 0.0 || !std::isfinite(x)) throw std::domain_error("unpack_double: need finite nonzero");
  Unpacked out;
  out.neg = std::signbit(x);
  int e = 0;
  const double m = std::frexp(std::fabs(x), &e);  // m in [0.5, 1), x = m * 2^e
  const auto imant = static_cast<std::uint64_t>(std::ldexp(m, 53));  // in [2^52, 2^53)
  const int lz = std::countl_zero(imant);
  out.frac = imant << lz;
  // |x| = imant * 2^(e-53) = frac * 2^(e-53-lz). With frac = h * 2^63, h in
  // [1,2): |x| = h * 2^(e - 53 - lz + 63), so scale = e + 10 - lz.
  out.scale = static_cast<std::int64_t>(e) + 10 - lz;
  out.sticky = false;
  return out;
}

double pack_double(const Unpacked& u) {
  if (u.frac == 0) return u.neg ? -0.0 : 0.0;
  std::uint64_t f = u.frac;
  const std::uint64_t low = f & ((std::uint64_t{1} << 11) - 1);
  const std::uint64_t guard = (low >> 10) & 1;
  const bool rest = (low & ((std::uint64_t{1} << 10) - 1)) != 0 || u.sticky;
  std::uint64_t kept = f >> 11;
  if (guard && (rest || (kept & 1))) ++kept;
  const double mag = std::ldexp(static_cast<double>(kept), static_cast<int>(u.scale) - 52);
  return u.neg ? -mag : mag;
}

}  // namespace dp::num
