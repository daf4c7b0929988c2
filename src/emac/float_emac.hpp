#pragma once
// Floating-point EMAC (Fig. 4 of the paper).
//
// Inputs are (1, we, wf) minifloats. Subnormal detection at the inputs sets
// the hidden bit and adjusts the exponent; mantissa products are converted to
// two's complement fixed-point, shifted by the product exponent, and summed
// exactly in a wide register. One rounding (RNE) happens at readout, with the
// result clipped at the maximum finite magnitude (the EMAC never overflows to
// infinity). NaN/Inf inputs are outside the contract (the paper: "We do not
// consider 'Not a Number' or the '± Infinity' as inputs don't have these
// values").

#include "emac/acc256.hpp"
#include "emac/emac.hpp"

namespace dp::emac {

class FloatEmac final : public Emac {
 public:
  FloatEmac(const num::FloatFormat& fmt, std::size_t k);

  using Emac::reset;
  void reset(std::uint32_t bias_bits) override;
  void step(std::uint32_t weight_bits, std::uint32_t activation_bits) override;
  std::uint32_t result() const override;
  std::unique_ptr<Emac> clone() const override {
    return std::make_unique<FloatEmac>(fmt_, k_);
  }

  const num::Format& format() const override { return format_; }
  std::size_t max_terms() const override { return k_; }
  std::size_t accumulator_width() const override;

 private:
  void accumulate_value(bool sign, std::uint64_t sig2, std::int32_t exp_sum);

  num::Format format_;
  num::FloatFormat fmt_;
  std::size_t k_;
  std::size_t steps_ = 0;
  Acc256 acc_;
};

}  // namespace dp::emac
