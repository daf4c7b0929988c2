#pragma once
// Component-level FPGA cost primitives for a Xilinx 7-series-class fabric
// (6-input LUTs, dedicated carry chains, DSP48 slices).
//
// This is the substitution for the paper's Vivado 2017.2 synthesis runs on
// the Virtex-7 xc7vx485t (see docs/reproducing.md#substitutions): every EMAC is decomposed into
// the datapath components visible in Figs 3-5, and each component gets a
// LUT count, a combinational delay and a switched-capacitance proxy from
// simple, documented first-order models. Constants are calibrated so the
// absolute numbers land in the paper's ballpark; the *relative* behaviour
// across formats — which is what Figs 6-9 compare — follows from the
// datapath widths (eqs. 3-4) and component counts alone.

#include <cstddef>

namespace dp::hw {

/// Cost triple of one hardware component.
struct Component {
  double luts = 0.0;      ///< 6-input LUT equivalents
  double delay_ns = 0.0;  ///< combinational delay incl. local routing
  double ff = 0.0;        ///< flip-flops

  Component& operator+=(const Component& o) {
    luts += o.luts;
    delay_ns += o.delay_ns;  // series composition
    ff += o.ff;
    return *this;
  }
};

/// Series composition (sum delays, sum LUTs).
inline Component operator+(Component a, const Component& b) { return a += b; }

/// Parallel composition: LUTs add, delay is the max.
Component parallel(const Component& a, const Component& b);

// -- primitive models --------------------------------------------------------

/// Carry-chain ripple adder / subtractor of width w.
Component adder(std::size_t w);

/// Two's complement negation (invert + increment): adder + inverters.
Component twos_complement(std::size_t w);

/// Array multiplier of w x w bits implemented in logic.
Component multiplier(std::size_t w);

/// Logarithmic barrel shifter: width w, shift amount range [0, max_shift].
Component barrel_shifter(std::size_t w, std::size_t max_shift);

/// Leading-zero detector over w bits (priority tree).
Component lzd(std::size_t w);

/// 2:1 mux of width w (e.g. conditional invert, clip select).
Component mux2(std::size_t w);

/// Comparator / clip detection over w bits.
Component comparator(std::size_t w);

/// Round-to-nearest-even decision + increment on an n-bit result.
Component round_rne(std::size_t n);

/// A pipeline register bank (flip-flops only, sequencing overhead).
Component reg(std::size_t w);

// -- global fabric constants --------------------------------------------------

/// Energy switched per LUT per toggle at 100% activity, joules.
double lut_switch_energy_j();

/// Static activity factor assumed for datapath logic.
double activity_factor();

/// Clock-to-out + setup overhead added to every register-to-register path.
double sequencing_overhead_ns();

}  // namespace dp::hw
