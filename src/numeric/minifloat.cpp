#include "numeric/minifloat.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dp::num {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kHidden = std::uint64_t{1} << 63;

}  // namespace

void validate(const FloatFormat& fmt) {
  if (fmt.we < 2 || fmt.we > 8) throw std::invalid_argument("FloatFormat: we must be in [2,8]");
  if (fmt.wf < 1 || fmt.wf > 52) throw std::invalid_argument("FloatFormat: wf must be in [1,52]");
  if (fmt.n() > 32) throw std::invalid_argument("FloatFormat: total width must be <= 32");
}

double FloatFormat::max_value() const {
  return std::ldexp(2.0 - std::ldexp(1.0, -wf), static_cast<int>(emax()));
}

double FloatFormat::min_value() const {
  return std::ldexp(1.0, static_cast<int>(emin()) - wf);
}

double FloatFormat::dynamic_range() const { return std::log10(max_value() / min_value()); }

std::string FloatFormat::name() const {
  return "float<" + std::to_string(n()) + ";we=" + std::to_string(we) + ">";
}

FloatFields float_fields(std::uint32_t bits, const FloatFormat& fmt) {
  validate(fmt);
  bits &= fmt.mask();
  FloatFields f;
  f.sign = (bits >> (fmt.we + fmt.wf)) & 1u;
  f.exponent = (bits >> fmt.wf) & ((1u << fmt.we) - 1);
  f.fraction = bits & ((std::uint64_t{1} << fmt.wf) - 1);
  return f;
}

std::uint32_t float_pack_fields(const FloatFields& f, const FloatFormat& fmt) {
  validate(fmt);
  return ((f.sign ? 1u : 0u) << (fmt.we + fmt.wf)) |
         ((f.exponent & ((1u << fmt.we) - 1)) << fmt.wf) |
         static_cast<std::uint32_t>(f.fraction & ((std::uint64_t{1} << fmt.wf) - 1));
}

FloatRawDecode float_decode_raw(std::uint32_t bits, const FloatFormat& fmt) {
  const FloatFields f = float_fields(bits, fmt);
  FloatRawDecode out;
  out.sign = f.sign;
  if (f.exponent == 0) {
    out.sig = f.fraction;  // subnormal: hidden bit 0, effective exponent 1
    out.exp = 1;
  } else {
    out.sig = (std::uint64_t{1} << fmt.wf) | f.fraction;
    out.exp = static_cast<std::int32_t>(f.exponent);
  }
  return out;
}

Decoded float_decode(std::uint32_t bits, const FloatFormat& fmt) {
  const FloatFields f = float_fields(bits, fmt);
  Decoded out;
  out.v.neg = f.sign;
  const std::uint32_t expmask = (1u << fmt.we) - 1;
  if (f.exponent == expmask) {
    out.cls = (f.fraction == 0) ? ValueClass::kInf : ValueClass::kNaN;
    return out;
  }
  if (f.exponent == 0) {
    if (f.fraction == 0) {
      out.cls = ValueClass::kZero;
      return out;
    }
    // Subnormal: value = fraction * 2^(emin - wf). Normalize.
    out.cls = ValueClass::kFinite;
    const int lz = std::countl_zero(f.fraction);
    out.v.frac = f.fraction << lz;
    // |x| = fraction * 2^(emin - wf) = (frac64/2^63) * 2^(emin - wf - lz + 63)
    out.v.scale = fmt.emin() - fmt.wf - lz + 63;
    out.v.sticky = false;
    return out;
  }
  out.cls = ValueClass::kFinite;
  out.v.scale = static_cast<std::int64_t>(f.exponent) - fmt.bias();
  out.v.frac = kHidden | (f.fraction << (63 - fmt.wf));
  out.v.sticky = false;
  return out;
}

std::uint32_t float_zero(const FloatFormat& fmt, bool neg) {
  return float_pack_fields({neg, 0, 0}, fmt);
}

std::uint32_t float_inf(const FloatFormat& fmt, bool neg) {
  return float_pack_fields({neg, (1u << fmt.we) - 1, 0}, fmt);
}

std::uint32_t float_nan(const FloatFormat& fmt) {
  // Quiet NaN: MSB of the fraction set.
  return float_pack_fields({false, (1u << fmt.we) - 1, std::uint64_t{1} << (fmt.wf - 1)}, fmt);
}

std::uint32_t float_encode(const Unpacked& value, const FloatFormat& fmt, FloatOverflow overflow) {
  validate(fmt);
  if (value.frac == 0) return float_zero(fmt, value.neg);

  const std::int64_t emin = fmt.emin();
  const std::int64_t emax = fmt.emax();

  std::int64_t scale = value.scale;
  std::uint64_t frac = value.frac;  // hidden at 63
  bool sticky = value.sticky;

  std::uint64_t kept;   // significand incl. hidden bit, wf+1 bits (or less if subnormal)
  std::int64_t biased;  // biased exponent of the encoded value

  if (scale >= emin) {
    // Normal range (pre-rounding): keep wf+1 bits.
    const int drop = 63 - fmt.wf;
    kept = frac >> drop;
    const bool guard = (frac >> (drop - 1)) & 1;
    const bool rest = (frac & ((std::uint64_t{1} << (drop - 1)) - 1)) != 0 || sticky;
    if (guard && (rest || (kept & 1))) ++kept;
    if (kept >> (fmt.wf + 1)) {  // mantissa overflow: 10.000...0
      kept >>= 1;
      ++scale;
    }
    biased = scale + fmt.bias();
  } else {
    // Subnormal: total shift places value at 2^(emin) * 0.f
    const std::int64_t shift = emin - scale;              // >= 1
    const std::int64_t drop = (63 - fmt.wf) + shift;      // bits to discard
    if (drop >= 64) {
      // drop == 64: the guard bit is the hidden bit itself, so the value lies
      // in [minsub/2, minsub); round up unless it is the exact tie. Larger
      // drops mean the value is below minsub/2 and underflows to zero.
      if (drop == 64) {
        const bool rest = (frac & ~kHidden) != 0 || sticky;
        kept = rest ? 1 : 0;  // tie (exactly half of minsub) rounds to even=0
      } else {
        kept = 0;
      }
    } else {
      kept = frac >> drop;
      const bool guard = (frac >> (drop - 1)) & 1;
      const bool rest = (frac & ((std::uint64_t{1} << (drop - 1)) - 1)) != 0 || sticky;
      if (guard && (rest || (kept & 1))) ++kept;
    }
    if (kept >> fmt.wf) {
      // Rounded up to 1.0: becomes the smallest normal.
      biased = 1;
      kept = std::uint64_t{1} << fmt.wf;
    } else {
      biased = 0;  // stays subnormal (kept may be 0 -> signed zero)
    }
  }

  if (biased > emax + fmt.bias()) {
    if (overflow == FloatOverflow::kSaturate) {
      return float_pack_fields(
          {value.neg, static_cast<std::uint32_t>(fmt.expmax()),
           (std::uint64_t{1} << fmt.wf) - 1},
          fmt);
    }
    return float_inf(fmt, value.neg);
  }

  FloatFields out;
  out.sign = value.neg;
  out.exponent = static_cast<std::uint32_t>(biased);
  out.fraction = kept & ((std::uint64_t{1} << fmt.wf) - 1);
  return float_pack_fields(out, fmt);
}

double float_to_double(std::uint32_t bits, const FloatFormat& fmt) {
  const Decoded d = float_decode(bits, fmt);
  switch (d.cls) {
    case ValueClass::kZero:
      return d.v.neg ? -0.0 : 0.0;
    case ValueClass::kInf:
      return d.v.neg ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
    case ValueClass::kNaN:
      return std::numeric_limits<double>::quiet_NaN();
    case ValueClass::kFinite:
      return pack_double(d.v);
    case ValueClass::kNaR:
      break;
  }
  throw std::logic_error("float_to_double: bad class");
}

std::uint32_t float_from_double(double x, const FloatFormat& fmt, FloatOverflow overflow) {
  validate(fmt);
  if (std::isnan(x)) return float_nan(fmt);
  if (std::isinf(x)) {
    return overflow == FloatOverflow::kSaturate
               ? float_pack_fields({std::signbit(x), static_cast<std::uint32_t>(fmt.expmax()),
                                    (std::uint64_t{1} << fmt.wf) - 1},
                                   fmt)
               : float_inf(fmt, std::signbit(x));
  }
  if (x == 0.0) return float_zero(fmt, std::signbit(x));
  return float_encode(unpack_double(x), fmt, overflow);
}

namespace {

bool is_nan(const Decoded& d) { return d.cls == ValueClass::kNaN; }

}  // namespace

std::uint32_t float_add(std::uint32_t a, std::uint32_t b, const FloatFormat& fmt) {
  const Decoded da = float_decode(a, fmt);
  const Decoded db = float_decode(b, fmt);
  if (is_nan(da) || is_nan(db)) return float_nan(fmt);
  if (da.cls == ValueClass::kInf && db.cls == ValueClass::kInf) {
    return da.v.neg == db.v.neg ? float_inf(fmt, da.v.neg) : float_nan(fmt);
  }
  if (da.cls == ValueClass::kInf) return float_inf(fmt, da.v.neg);
  if (db.cls == ValueClass::kInf) return float_inf(fmt, db.v.neg);
  if (da.cls == ValueClass::kZero && db.cls == ValueClass::kZero) {
    return float_zero(fmt, da.v.neg && db.v.neg);  // -0 + -0 = -0, else +0
  }
  if (da.cls == ValueClass::kZero) return b & fmt.mask();
  if (db.cls == ValueClass::kZero) return a & fmt.mask();
  const Unpacked sum = add_unpacked(da.v, db.v);
  if (sum.frac == 0) return float_zero(fmt, false);  // exact cancellation -> +0 (RNE)
  return float_encode(sum, fmt);
}

std::uint32_t float_mul(std::uint32_t a, std::uint32_t b, const FloatFormat& fmt) {
  const Decoded da = float_decode(a, fmt);
  const Decoded db = float_decode(b, fmt);
  if (is_nan(da) || is_nan(db)) return float_nan(fmt);
  const bool neg = da.v.neg != db.v.neg;
  if (da.cls == ValueClass::kInf || db.cls == ValueClass::kInf) {
    if (da.cls == ValueClass::kZero || db.cls == ValueClass::kZero) return float_nan(fmt);
    return float_inf(fmt, neg);
  }
  if (da.cls == ValueClass::kZero || db.cls == ValueClass::kZero) return float_zero(fmt, neg);
  return float_encode(mul_unpacked(da.v, db.v), fmt);
}

std::uint32_t float_neg(std::uint32_t a, const FloatFormat& fmt) {
  validate(fmt);
  return (a ^ (std::uint32_t{1} << (fmt.we + fmt.wf))) & fmt.mask();
}

}  // namespace dp::num
