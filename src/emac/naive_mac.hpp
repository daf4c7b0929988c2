#pragma once
// Naive (non-exact) MAC baseline: rounds after every multiply and after
// every accumulate, i.e. what a conventional low-precision datapath without
// a Kulisch/quire accumulator would produce. Used by bench_ablation
// (docs/reproducing.md#map) to quantify the benefit of the EMAC's delayed
// rounding.

#include <cstdint>
#include <span>

#include "numeric/format.hpp"

namespace dp::emac {

/// result = round( ... round(round(bias + round(w0*a0)) + round(w1*a1)) ...)
std::uint32_t naive_mac(const num::Format& fmt, std::uint32_t bias_bits,
                        std::span<const std::uint32_t> weights,
                        std::span<const std::uint32_t> activations);

}  // namespace dp::emac
