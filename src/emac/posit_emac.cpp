#include "emac/posit_emac.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "emac/fixed_emac.hpp"
#include "emac/float_emac.hpp"

namespace dp::emac {

namespace {

/// Significand register width (hidden + fraction bits): n - 2 - es.
int sig_width(const num::PositFormat& fmt) { return fmt.n - 2 - fmt.es; }

}  // namespace

// ---------------------------------------------------------------------------
// Algorithm 1 transcription.
// ---------------------------------------------------------------------------

PositDecodeRtl posit_decode_rtl(const rtl::Bits& in, const num::PositFormat& fmt) {
  num::validate(fmt);
  const std::size_t n = fmt.n;
  const std::size_t es = fmt.es;
  if (in.width() != n) throw std::invalid_argument("posit_decode_rtl: width mismatch");
  if (n < static_cast<std::size_t>(fmt.es) + 4) {
    throw std::invalid_argument("posit_decode_rtl: requires n >= es + 4");
  }

  PositDecodeRtl out;
  out.nzero = in.or_reduce();                                     // line 2
  const bool sign = in.msb();                                     // line 3
  out.sign = sign;
  // line 4: twos <- ({n-1{sign}} XOR in[n-2:0]) + sign
  const rtl::Bits low = in.slice(n - 2, 0);
  rtl::Bits twos = sign ? (~low).add_u64(1) : low;
  const bool rc = twos.bit(n - 2);                                // line 5
  const rtl::Bits inv = rc ? ~twos : twos;                        // line 6
  const std::size_t zc = inv.lzd();                               // line 7
  // line 8: tmp <- twos[n-4:0] << (zc - 1)
  const rtl::Bits tmp = twos.slice(n - 4, 0).shl(zc >= 1 ? zc - 1 : 0);
  // line 9: frac <- {nzero, tmp[n-es-4:0]}
  std::uint64_t frac = out.nzero ? (std::uint64_t{1} << (n - es - 3)) : 0;
  if (n - es - 3 >= 1) {
    frac |= tmp.slice(n - es - 4, 0).to_u64();
  }
  out.frac = frac;
  // line 10: exp <- tmp[n-4 : n-es-3]
  std::uint32_t exp = 0;
  if (es > 0) {
    exp = static_cast<std::uint32_t>(tmp.slice(n - 4, n - es - 3).to_u64());
  }
  // line 11: reg <- rc ? zc - 1 : -zc
  const std::int32_t reg = rc ? static_cast<std::int32_t>(zc) - 1
                              : -static_cast<std::int32_t>(zc);
  out.sf = (reg << es) | static_cast<std::int32_t>(exp);  // {reg, exp} concat
  return out;
}

// ---------------------------------------------------------------------------
// Width formulas.
// ---------------------------------------------------------------------------

std::size_t accumulator_width_eq3(double max_value, double min_value, std::size_t k) {
  const double ratio = max_value / min_value;
  const auto lg = static_cast<std::size_t>(std::ceil(std::log2(ratio)));
  const auto lgk = static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(k))));
  return lgk + 2 * lg + 2;
}

std::size_t quire_width_eq4(const num::PositFormat& fmt, std::size_t k) {
  const auto lgk = static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(k))));
  return (std::size_t{1} << (fmt.es + 2)) * (fmt.n - 2) + 2 + lgk;
}

// ---------------------------------------------------------------------------
// PositEmacFast.
// ---------------------------------------------------------------------------

bool PositEmacFast::fits(const num::PositFormat& fmt, std::size_t k) {
  const std::size_t need =
      4 * static_cast<std::size_t>(fmt.max_scale()) +
      2 * static_cast<std::size_t>(sig_width(fmt)) +
      static_cast<std::size_t>(std::bit_width(k)) + 2;
  return need <= 250;
}

PositEmacFast::PositEmacFast(const num::PositFormat& fmt, std::size_t k)
    : format_(fmt), fmt_(fmt), k_(k) {
  num::validate(fmt);
  if (k == 0) throw std::invalid_argument("PositEmacFast: k must be >= 1");
  if (fmt.n < fmt.es + 4) throw std::invalid_argument("PositEmacFast: requires n >= es + 4");
  p_ = sig_width(fmt);
  s_ = fmt.max_scale();
  if (!fits(fmt, k)) {
    throw std::invalid_argument("PositEmacFast: quire exceeds 250 bits; use PositEmacRtl");
  }
  // Decode lookup table: inference pushes millions of operands through the
  // unit, and field extraction dominates otherwise. Shared process-wide —
  // clone() and sibling units reuse the same immutable table (n <= 16 keeps
  // it small; wider formats decode per operand).
  lut_ = shared_decode_lut(format_);
}

void PositEmacFast::accumulate(bool sign, std::uint64_t sig, std::int64_t shift) {
  __int128 v = static_cast<__int128>(sig);
  if (sign) v = -v;
  acc_.add(Acc256::from_shifted_product(v, static_cast<int>(shift)));
}

void PositEmacFast::reset(std::uint32_t bias_bits) {
  acc_.clear();
  steps_ = 0;
  nar_ = false;
  if ((bias_bits & fmt_.mask()) == fmt_.nar_pattern()) {
    nar_ = true;
    return;
  }
  num::PositRawDecode b;
  if (num::posit_decode_raw(bias_bits, fmt_, b)) {
    // Bias value = F * 2^(sf - (P-1)); quire LSB weight is 2^(-2S - 2(P-1)),
    // so the integer image is F << (sf + 2S + P - 1).
    accumulate(b.sign, b.sig, b.sf + 2 * s_ + p_ - 1);
  }
}

void PositEmacFast::step(std::uint32_t weight_bits, std::uint32_t activation_bits) {
  if (steps_ >= k_) throw std::logic_error("PositEmacFast: more than k accumulation steps");
  ++steps_;
  if (lut_) {
    const DecodedOp& w = (*lut_)[weight_bits & fmt_.mask()];
    const DecodedOp& a = (*lut_)[activation_bits & fmt_.mask()];
    if (w.kind == DecodedOp::kNaR || a.kind == DecodedOp::kNaR) {
      nar_ = true;
      return;
    }
    if (w.kind == DecodedOp::kZero || a.kind == DecodedOp::kZero) return;
    accumulate(w.sign != a.sign, w.sig * a.sig,
               static_cast<std::int64_t>(w.sf) + a.sf + 2 * s_);
    return;
  }
  if ((weight_bits & fmt_.mask()) == fmt_.nar_pattern() ||
      (activation_bits & fmt_.mask()) == fmt_.nar_pattern()) {
    nar_ = true;
    return;
  }
  num::PositRawDecode w, a;
  if (!num::posit_decode_raw(weight_bits, fmt_, w)) return;
  if (!num::posit_decode_raw(activation_bits, fmt_, a)) return;
  // Product = (Fw*Fa) * 2^(sfw + sfa - 2(P-1)); biased shift = sf + 2S >= 0.
  accumulate(w.sign != a.sign, w.sig * a.sig,
             static_cast<std::int64_t>(w.sf) + a.sf + 2 * s_);
}

std::uint32_t PositEmacFast::result() const {
  if (nar_) return fmt_.nar_pattern();
  if (acc_.is_zero()) return fmt_.zero_pattern();
  const bool neg = acc_.is_neg();
  const Acc256 mag = neg ? acc_.negated() : acc_;
  const int p = mag.msb();
  num::Unpacked u;
  u.neg = neg;
  u.scale = p - (2 * s_ + 2 * (p_ - 1));
  if (p >= 63) {
    u.frac = mag.extract64(p - 63);
    u.sticky = mag.any_below(p - 63);
  } else {
    u.frac = mag.extract64(0) << (63 - p);
    u.sticky = false;
  }
  return num::posit_encode(u, fmt_);
}

std::size_t PositEmacFast::accumulator_width() const { return quire_width_eq4(fmt_, k_); }

// ---------------------------------------------------------------------------
// PositEmacRtl.
// ---------------------------------------------------------------------------

namespace {

/// Conservative quire allocation: covers every shifted product bit position
/// plus carry headroom for k terms. The low 2(P-1) bits below the eq. (4)
/// span are provably always zero (extreme-regime posits have empty
/// fractions); see tests/emac/posit_emac_test.cpp.
std::size_t quire_width_conservative(const num::PositFormat& fmt, std::size_t k) {
  const std::size_t s = static_cast<std::size_t>(fmt.max_scale());
  const std::size_t p = static_cast<std::size_t>(sig_width(fmt));
  return 4 * s + 2 * p + 2 + static_cast<std::size_t>(std::bit_width(k));
}

}  // namespace

PositEmacRtl::PositEmacRtl(const num::PositFormat& fmt, std::size_t k)
    : format_(fmt), fmt_(fmt), k_(k), quire_(quire_width_conservative(fmt, k)) {
  num::validate(fmt);
  if (k == 0) throw std::invalid_argument("PositEmacRtl: k must be >= 1");
  if (fmt.n < fmt.es + 4) throw std::invalid_argument("PositEmacRtl: requires n >= es + 4");
  p_ = sig_width(fmt);
  s_ = fmt.max_scale();
}

void PositEmacRtl::accumulate(bool sign, const rtl::Bits& sig, std::size_t shift) {
  rtl::Bits term = sig.resize(quire_.width()).shl(shift);
  if (sign) term = term.negate();
  quire_ = quire_ + term;
}

void PositEmacRtl::reset(std::uint32_t bias_bits) {
  quire_ = rtl::Bits(quire_.width());
  steps_ = 0;
  nar_ = false;
  bias_bits &= fmt_.mask();
  if (bias_bits == fmt_.nar_pattern()) {
    nar_ = true;
    return;
  }
  const PositDecodeRtl b = posit_decode_rtl(rtl::Bits(fmt_.n, bias_bits), fmt_);
  if (!b.nzero) return;
  accumulate(b.sign, rtl::Bits(static_cast<std::size_t>(p_), b.frac),
             static_cast<std::size_t>(b.sf + 2 * s_ + p_ - 1));
}

void PositEmacRtl::step(std::uint32_t weight_bits, std::uint32_t activation_bits) {
  if (steps_ >= k_) throw std::logic_error("PositEmacRtl: more than k accumulation steps");
  ++steps_;
  weight_bits &= fmt_.mask();
  activation_bits &= fmt_.mask();
  if (weight_bits == fmt_.nar_pattern() || activation_bits == fmt_.nar_pattern()) {
    nar_ = true;
    return;
  }
  const PositDecodeRtl w = posit_decode_rtl(rtl::Bits(fmt_.n, weight_bits), fmt_);
  const PositDecodeRtl a = posit_decode_rtl(rtl::Bits(fmt_.n, activation_bits), fmt_);
  if (!w.nzero || !a.nzero) return;  // zero operand contributes nothing
  // fracmult = fracw * fraca (width 2P); biased shift = sfw + sfa + 2S.
  const rtl::Bits fw(static_cast<std::size_t>(p_), w.frac);
  const rtl::Bits fa(static_cast<std::size_t>(p_), a.frac);
  const rtl::Bits fracmult = fw.mul_wide(fa);
  const std::int64_t sfmult = static_cast<std::int64_t>(w.sf) + a.sf;
  accumulate(w.sign != a.sign, fracmult, static_cast<std::size_t>(sfmult + 2 * s_));
}

std::uint32_t PositEmacRtl::result() const {
  if (nar_) return fmt_.nar_pattern();
  if (quire_.is_zero()) return fmt_.zero_pattern();
  // Fraction & scale-factor extraction (Algorithm 2, lines 15-19).
  const bool signquire = quire_.msb();
  const rtl::Bits magquire = signquire ? quire_.negate() : quire_;
  const std::size_t zc = magquire.lzd();
  const std::size_t msb_pos = quire_.width() - 1 - zc;
  num::Unpacked u;
  u.neg = signquire;
  u.scale = static_cast<std::int64_t>(msb_pos) - (2 * s_ + 2 * (p_ - 1));
  // Extract the top 64 bits below (and including) the leading one.
  if (msb_pos >= 63) {
    u.frac = magquire.slice(msb_pos, msb_pos - 63).to_u64();
    u.sticky = msb_pos > 63 && magquire.slice(msb_pos - 64, 0).or_reduce();
  } else {
    u.frac = magquire.slice(msb_pos, 0).to_u64() << (63 - msb_pos);
    u.sticky = false;
  }
  // Convergent rounding & encoding (Algorithm 2, lines 20-43).
  return num::posit_encode(u, fmt_);
}

// ---------------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------------

std::unique_ptr<Emac> make_emac(const num::Format& fmt, std::size_t k, bool bit_accurate) {
  switch (fmt.kind()) {
    case num::Kind::kFixed:
      return std::make_unique<FixedEmac>(fmt.fixed(), k);
    case num::Kind::kFloat:
      return std::make_unique<FloatEmac>(fmt.flt(), k);
    case num::Kind::kPosit:
      if (bit_accurate || !PositEmacFast::fits(fmt.posit(), k)) {
        return std::make_unique<PositEmacRtl>(fmt.posit(), k);
      }
      return std::make_unique<PositEmacFast>(fmt.posit(), k);
  }
  throw std::logic_error("make_emac: bad kind");
}

}  // namespace dp::emac
