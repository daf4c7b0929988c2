#pragma once
// Fixed-point EMAC (Fig. 3 of the paper).
//
// Weight, activation and bias all carry q fraction bits and n-q integer bits.
// The unnormalized 2n-bit product is kept exactly; products accumulate over k
// cycles in a register wide enough for the exact result (eq. 3). The sum is
// then shifted right by q bits (truncation) and clipped at the maximum
// magnitude — exactly the datapath of the figure.

#include "emac/emac.hpp"

namespace dp::emac {

class FixedEmac final : public Emac {
 public:
  FixedEmac(const num::FixedFormat& fmt, std::size_t k);

  using Emac::reset;
  void reset(std::uint32_t bias_bits) override;
  void step(std::uint32_t weight_bits, std::uint32_t activation_bits) override;
  std::uint32_t result() const override;
  std::unique_ptr<Emac> clone() const override {
    return std::make_unique<FixedEmac>(fmt_, k_);
  }

  const num::Format& format() const override { return format_; }
  std::size_t max_terms() const override { return k_; }
  std::size_t accumulator_width() const override;

 private:
  num::Format format_;
  num::FixedFormat fmt_;
  std::size_t k_;
  std::size_t steps_ = 0;
  __int128 acc_ = 0;  // 2q fraction bits
};

}  // namespace dp::emac
