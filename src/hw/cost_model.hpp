#pragma once
// EMAC synthesis cost model — the stand-in for the paper's Vivado 2017.2 runs
// on the Virtex-7 xc7vx485t-2ffg1761c (docs/reproducing.md#substitutions
// documents the substitution).
//
// Each EMAC architecture (Figs 3-5) is decomposed into its datapath
// components; the pipeline has two register-separated stages (the paper: "a
// D flip-flop separates the multiplication and accumulation stages") plus a
// combinational readout stage:
//
//   stage M (multiply):   input decode + significand multiply
//   stage A (accumulate): fixed-point convert + wide add   <- width eq.(3)/(4)
//   readout:              normalize + round + clip/encode
//
// fmax = 1 / (max(stage M, stage A) + sequencing overhead). Energy per MAC
// cycle is proportional to switched LUTs. Absolute LUT/fmax values are
// first-order calibrated to the paper's reported ballpark; the cross-format
// *shape* (Figs 6-8) emerges from the widths and component counts.

#include <cstddef>
#include <vector>

#include "numeric/format.hpp"

namespace dp::hw {

struct EmacSynthesis {
  num::Format format;
  std::size_t k = 0;  ///< accumulation length the core was sized for

  double luts = 0;  ///< 6-input LUTs
  double ffs = 0;   ///< flip-flops
  int dsps = 0;     ///< DSP48 slices (0: LUT-mapped multiplier)

  double stage_mult_ns = 0;  ///< decode + multiply stage delay
  double stage_acc_ns = 0;   ///< convert + accumulate stage delay
  double readout_ns = 0;     ///< round/normalize/encode (once per result)

  double critical_path_ns = 0;
  double fmax_hz = 0;

  double dyn_energy_per_op_j = 0;  ///< switched energy per MAC cycle
  double dyn_power_w = 0;          ///< at fmax
  double edp_j_s = 0;              ///< dyn_energy_per_op * clock period

  double dynamic_range_decades = 0;  ///< log10(max/min) of the format (Fig 6 x-axis)
  std::size_t accumulator_bits = 0;  ///< eq. (3) / eq. (4) width
};

/// Synthesize one EMAC configuration (model of a Vivado out-of-context run).
EmacSynthesis synthesize_emac(const num::Format& fmt, std::size_t k);

/// Convenience: synthesize the whole paper grid for total width n.
std::vector<EmacSynthesis> synthesize_grid(int n, std::size_t k);

}  // namespace dp::hw
