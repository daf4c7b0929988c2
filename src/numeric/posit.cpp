#include "numeric/posit.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dp::num {

namespace {

constexpr std::uint64_t kHidden = std::uint64_t{1} << 63;

std::uint32_t twos_complement(std::uint32_t bits, const PositFormat& fmt) {
  return (~bits + 1u) & fmt.mask();
}

}  // namespace

void validate(const PositFormat& fmt) {
  if (fmt.n < 2 || fmt.n > 32) throw std::invalid_argument("PositFormat: n must be in [2,32]");
  if (fmt.es < 0 || fmt.es > 5) throw std::invalid_argument("PositFormat: es must be in [0,5]");
}

double PositFormat::useed() const { return std::ldexp(1.0, 1 << es); }

double PositFormat::maxpos() const {
  return std::ldexp(1.0, static_cast<int>(max_scale()));
}

double PositFormat::minpos() const {
  return std::ldexp(1.0, -static_cast<int>(max_scale()));
}

double PositFormat::dynamic_range() const {
  // log10(maxpos/minpos) = 2 * max_scale * log10(2)
  return 2.0 * static_cast<double>(max_scale()) * 0.3010299956639812;
}

std::string PositFormat::name() const {
  return "posit<" + std::to_string(n) + "," + std::to_string(es) + ">";
}

PositFields posit_fields(std::uint32_t bits, const PositFormat& fmt) {
  validate(fmt);
  bits &= fmt.mask();
  if (bits == fmt.zero_pattern() || bits == fmt.nar_pattern()) {
    throw std::domain_error("posit_fields: zero/NaR has no fields");
  }
  PositFields out;
  out.sign = (bits >> (fmt.n - 1)) & 1u;
  const std::uint32_t mag = out.sign ? twos_complement(bits, fmt) : bits;

  // Regime: run of identical bits starting at position n-2.
  const bool r = (mag >> (fmt.n - 2)) & 1u;
  int run = 0;
  for (int i = fmt.n - 2; i >= 0; --i) {
    if (((mag >> i) & 1u) == static_cast<unsigned>(r)) {
      ++run;
    } else {
      break;
    }
  }
  out.k = r ? run - 1 : -run;
  const bool has_terminator = run < fmt.n - 1;
  out.regime_len = run + (has_terminator ? 1 : 0);

  // Bits remaining after sign + regime (+ terminator).
  const int consumed = 1 + out.regime_len;
  const int rem = fmt.n - consumed;  // >= 0
  // Exponent: up to `es` bits, zero-padded on the right when truncated.
  std::uint32_t e = 0;
  const int ebits = std::min(fmt.es, rem);
  if (ebits > 0) {
    e = (mag >> (rem - ebits)) & ((1u << ebits) - 1);
  }
  e <<= (fmt.es - ebits);
  out.exponent = e;

  const int nf = rem - ebits;
  out.nfrac = nf;
  out.fraction = nf > 0 ? (mag & ((std::uint64_t{1} << nf) - 1)) : 0;
  return out;
}

bool posit_decode_raw(std::uint32_t bits, const PositFormat& fmt, PositRawDecode& out) {
  bits &= fmt.mask();
  if (bits == fmt.zero_pattern()) return false;
  const PositFields f = posit_fields(bits, fmt);
  const int p = fmt.n - 2 - fmt.es;  // significand register width
  out.sign = f.sign;
  out.sf = static_cast<std::int32_t>((static_cast<std::int64_t>(f.k) << fmt.es) + f.exponent);
  out.sig = (std::uint64_t{1} << (p - 1)) | (f.fraction << (p - 1 - f.nfrac));
  return true;
}

Decoded posit_decode(std::uint32_t bits, const PositFormat& fmt) {
  validate(fmt);
  bits &= fmt.mask();
  Decoded out;
  if (bits == fmt.zero_pattern()) {
    out.cls = ValueClass::kZero;
    return out;
  }
  if (bits == fmt.nar_pattern()) {
    out.cls = ValueClass::kNaR;
    return out;
  }
  const PositFields f = posit_fields(bits, fmt);
  out.cls = ValueClass::kFinite;
  out.v.neg = f.sign;
  out.v.scale = (static_cast<std::int64_t>(f.k) << fmt.es) + f.exponent;
  out.v.frac = kHidden | (f.nfrac > 0 ? (f.fraction << (63 - f.nfrac)) : 0);
  out.v.sticky = false;
  return out;
}

std::uint32_t posit_encode(const Unpacked& value, const PositFormat& fmt) {
  validate(fmt);
  if (value.frac == 0) return fmt.zero_pattern();

  const std::int64_t max_scale = fmt.max_scale();
  const std::uint32_t body_max = (std::uint32_t{1} << (fmt.n - 1)) - 1;  // maxpos body
  std::uint32_t body;

  if (value.scale >= max_scale) {
    body = body_max;  // saturate at maxpos (posits never overflow)
  } else if (value.scale < -max_scale) {
    body = 1;  // saturate at minpos (never round to zero)
  } else {
    const std::int64_t k = value.scale >> fmt.es;  // floor division
    const std::uint32_t e =
        static_cast<std::uint32_t>(value.scale - (k << fmt.es));  // in [0, 2^es)

    // Assemble the unbounded magnitude bit string that follows the sign bit:
    //   regime | exponent (es bits) | fraction (63 bits) -- MSB first.
    // Held in a 128-bit register: regime <= n bits, es <= 5, fraction 63.
    using u128 = unsigned __int128;
    u128 str = 0;
    int len = 0;
    auto push_bit = [&](bool b) {
      str = (str << 1) | (b ? 1 : 0);
      ++len;
    };
    if (k >= 0) {
      for (std::int64_t i = 0; i <= k; ++i) push_bit(true);
      push_bit(false);
    } else {
      for (std::int64_t i = 0; i < -k; ++i) push_bit(false);
      push_bit(true);
    }
    for (int i = fmt.es - 1; i >= 0; --i) push_bit((e >> i) & 1u);
    str = (str << 63) | (value.frac & ~kHidden);  // 63 fraction bits
    len += 63;

    // Keep n-1 bits; round-to-nearest-even on the remainder.
    const int drop = len - (fmt.n - 1);  // > 0 always (len >= 64 > n-1)
    const std::uint32_t kept = static_cast<std::uint32_t>(str >> drop) & body_max;
    const bool guard = (str >> (drop - 1)) & 1;
    const bool rest = ((str & ((u128{1} << (drop - 1)) - 1)) != 0) || value.sticky;
    body = kept;
    if (guard && (rest || (kept & 1u))) {
      ++body;  // cannot exceed body_max: kept is never all-ones (see tests)
    }
    if (body == 0) body = 1;  // nonzero values never round to zero
  }

  std::uint32_t bits = body;
  if (value.neg) bits = twos_complement(bits, fmt);
  return bits;
}

std::uint32_t posit_encode(const Decoded& value, const PositFormat& fmt) {
  switch (value.cls) {
    case ValueClass::kZero:
      return fmt.zero_pattern();
    case ValueClass::kNaR:
      return fmt.nar_pattern();
    case ValueClass::kFinite:
      return posit_encode(value.v, fmt);
    case ValueClass::kInf:
    case ValueClass::kNaN:
      return fmt.nar_pattern();  // posits fold all non-reals into NaR
  }
  throw std::logic_error("posit_encode: bad class");
}

double posit_to_double(std::uint32_t bits, const PositFormat& fmt) {
  const Decoded d = posit_decode(bits, fmt);
  switch (d.cls) {
    case ValueClass::kZero:
      return 0.0;
    case ValueClass::kNaR:
      return std::numeric_limits<double>::quiet_NaN();
    case ValueClass::kFinite:
      return pack_double(d.v);
    case ValueClass::kInf:
    case ValueClass::kNaN:
      break;  // posit_decode never produces these
  }
  throw std::logic_error("posit_to_double: bad class");
}

std::uint32_t posit_from_double(double x, const PositFormat& fmt) {
  validate(fmt);
  if (x == 0.0) return fmt.zero_pattern();
  if (!std::isfinite(x)) return fmt.nar_pattern();
  return posit_encode(unpack_double(x), fmt);
}

std::uint32_t posit_add(std::uint32_t a, std::uint32_t b, const PositFormat& fmt) {
  const Decoded da = posit_decode(a, fmt);
  const Decoded db = posit_decode(b, fmt);
  if (da.cls == ValueClass::kNaR || db.cls == ValueClass::kNaR) return fmt.nar_pattern();
  if (da.cls == ValueClass::kZero) return b & fmt.mask();
  if (db.cls == ValueClass::kZero) return a & fmt.mask();
  const Unpacked sum = add_unpacked(da.v, db.v);
  if (sum.frac == 0) return fmt.zero_pattern();
  return posit_encode(sum, fmt);
}

std::uint32_t posit_mul(std::uint32_t a, std::uint32_t b, const PositFormat& fmt) {
  const Decoded da = posit_decode(a, fmt);
  const Decoded db = posit_decode(b, fmt);
  if (da.cls == ValueClass::kNaR || db.cls == ValueClass::kNaR) return fmt.nar_pattern();
  if (da.cls == ValueClass::kZero || db.cls == ValueClass::kZero) return fmt.zero_pattern();
  return posit_encode(mul_unpacked(da.v, db.v), fmt);
}

std::uint32_t posit_neg(std::uint32_t a, const PositFormat& fmt) {
  validate(fmt);
  a &= fmt.mask();
  if (a == fmt.zero_pattern() || a == fmt.nar_pattern()) return a;
  return twos_complement(a, fmt);
}

std::uint32_t posit_abs(std::uint32_t a, const PositFormat& fmt) {
  validate(fmt);
  a &= fmt.mask();
  if (a == fmt.zero_pattern() || a == fmt.nar_pattern()) return a;
  const bool neg = (a >> (fmt.n - 1)) & 1u;
  return neg ? twos_complement(a, fmt) : a;
}

bool posit_less(std::uint32_t a, std::uint32_t b, const PositFormat& fmt) {
  validate(fmt);
  // Sign-extend the n-bit patterns and compare as integers.
  const auto ext = [&](std::uint32_t v) {
    v &= fmt.mask();
    std::int64_t s = v;
    if ((v >> (fmt.n - 1)) & 1u) s -= std::int64_t{1} << fmt.n;
    return s;
  };
  return ext(a) < ext(b);
}

std::uint32_t posit_next(std::uint32_t a, const PositFormat& fmt) {
  validate(fmt);
  a &= fmt.mask();
  const std::uint32_t top = (fmt.mask() >> 1);  // 011..1 = maxpos
  if (a == top) return a;                       // saturate (next would be NaR)
  return (a + 1) & fmt.mask();
}

std::uint32_t posit_prior(std::uint32_t a, const PositFormat& fmt) {
  validate(fmt);
  a &= fmt.mask();
  const std::uint32_t bottom = fmt.nar_pattern() + 1;  // most negative real
  if (a == bottom) return a;
  return (a - 1) & fmt.mask();
}

}  // namespace dp::num
