#include "emac/float_emac.hpp"

#include <bit>
#include <stdexcept>

namespace dp::emac {

FloatEmac::FloatEmac(const num::FloatFormat& fmt, std::size_t k)
    : format_(fmt), fmt_(fmt), k_(k) {
  num::validate(fmt);
  if (k == 0) throw std::invalid_argument("FloatEmac: k must be >= 1");
  // Accumulator frame: integer = sum of sig2 << (exp_sum - 2), where
  // sig2 <= 2^(2wf+2) and exp_sum <= 2*expmax. Require headroom for k terms.
  const std::size_t need = 2 * fmt.expmax() + 2 * fmt.wf + 2 +
                           static_cast<std::size_t>(std::bit_width(k)) + 1;
  if (need > 250) throw std::invalid_argument("FloatEmac: accumulator exceeds 250 bits");
}

void FloatEmac::accumulate_value(bool sign, std::uint64_t sig2, std::int32_t exp_sum) {
  if (sig2 == 0) return;
  // Value = sig2 * 2^(exp_sum - 2*bias - 2*wf). Quantize the frame so the
  // smallest possible product (exp_sum = 2, subnormal x subnormal) lands at
  // bit 0: shift = exp_sum - 2.
  const int shift = exp_sum - 2;
  __int128 prod = static_cast<__int128>(sig2);
  if (sign) prod = -prod;
  acc_.add(Acc256::from_shifted_product(prod, shift));
}

void FloatEmac::reset(std::uint32_t bias_bits) {
  acc_.clear();
  steps_ = 0;
  // Load the bias: a single operand b = sig * 2^(exp - bias - wf). In the
  // product frame (2*bias + 2*wf fraction bits) its integer image is
  // sig << (exp + bias + wf - 2).
  const num::FloatRawDecode b = num::float_decode_raw(bias_bits, fmt_);
  if (b.sig != 0) {
    const std::int32_t exp_sum = b.exp + fmt_.bias() + fmt_.wf;
    accumulate_value(b.sign, b.sig, exp_sum);
  }
}

void FloatEmac::step(std::uint32_t weight_bits, std::uint32_t activation_bits) {
  if (steps_ >= k_) throw std::logic_error("FloatEmac: more than k accumulation steps");
  const num::FloatRawDecode w = num::float_decode_raw(weight_bits, fmt_);
  const num::FloatRawDecode a = num::float_decode_raw(activation_bits, fmt_);
  const std::uint64_t sig2 = w.sig * a.sig;  // <= 2^(2wf+2), exact
  accumulate_value(w.sign != a.sign, sig2, w.exp + a.exp);
  ++steps_;
}

std::uint32_t FloatEmac::result() const {
  if (acc_.is_zero()) return num::float_zero(fmt_);
  const bool neg = acc_.is_neg();
  const Acc256 mag = neg ? acc_.negated() : acc_;
  const int p = mag.msb();  // position of the leading one
  // Value = mag * 2^(-2*bias - 2*wf + 2); hidden bit at position p.
  num::Unpacked u;
  u.neg = neg;
  u.scale = p - 2 * fmt_.bias() - 2 * fmt_.wf + 2;
  if (p >= 63) {
    u.frac = mag.extract64(p - 63);
    u.sticky = mag.any_below(p - 63);
  } else {
    u.frac = mag.extract64(0) << (63 - p);
    u.sticky = false;
  }
  return num::float_encode(u, fmt_, num::FloatOverflow::kSaturate);
}

std::size_t FloatEmac::accumulator_width() const {
  return accumulator_width_eq3(fmt_.max_value(), fmt_.min_value(), k_);
}

}  // namespace dp::emac
