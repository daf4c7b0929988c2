// Tests for the FPGA cost model: the figure-shape properties the paper
// reports must emerge from the component decomposition (the Figs. 6-8
// rows of docs/reproducing.md#map).

#include "hw/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hw/components.hpp"

namespace dp::hw {
namespace {

EmacSynthesis posit8(int es, std::size_t k = 256) {
  return synthesize_emac(num::PositFormat{8, es}, k);
}
EmacSynthesis float8(int we, std::size_t k = 256) {
  return synthesize_emac(num::FloatFormat{we, 7 - we}, k);
}
EmacSynthesis fixed8(int q, std::size_t k = 256) {
  return synthesize_emac(num::FixedFormat{8, q}, k);
}

TEST(Components, ParallelTakesMaxDelay) {
  const Component a{10, 1.0, 0}, b{5, 2.0, 0};
  const Component p = parallel(a, b);
  EXPECT_EQ(p.luts, 15);
  EXPECT_EQ(p.delay_ns, 2.0);
}

TEST(Components, MonotoneInWidth) {
  EXPECT_LT(adder(8).delay_ns, adder(64).delay_ns);
  EXPECT_LT(adder(8).luts, adder(64).luts);
  EXPECT_LT(multiplier(4).luts, multiplier(8).luts);
  EXPECT_LT(lzd(8).luts, lzd(64).luts);
  EXPECT_LT(barrel_shifter(16, 8).luts, barrel_shifter(64, 48).luts);
}

TEST(CostModel, RejectsZeroK) {
  EXPECT_THROW(synthesize_emac(num::FixedFormat{8, 4}, 0), std::invalid_argument);
}

// --- Fig. 8: LUT utilization ordering & growth -----------------------------

TEST(CostModelFig8, LutOrderingAtEightBits) {
  // "posit generally consumes a higher amount of resources", float between,
  // fixed cheapest.
  const double lp = posit8(1).luts;
  const double lf = float8(4).luts;
  const double lx = fixed8(4).luts;
  EXPECT_GT(lp, lf);
  EXPECT_GT(lf, lx);
}

TEST(CostModelFig8, LutGrowthWithN) {
  for (int n = 5; n < 8; ++n) {
    EXPECT_LT(synthesize_emac(num::PositFormat{n, 1}, 256).luts,
              synthesize_emac(num::PositFormat{n + 1, 1}, 256).luts);
    EXPECT_LT(synthesize_emac(num::FixedFormat{n, n / 2}, 256).luts,
              synthesize_emac(num::FixedFormat{n + 1, (n + 1) / 2}, 256).luts);
    EXPECT_LT(synthesize_emac(num::FloatFormat{3, n - 4}, 256).luts,
              synthesize_emac(num::FloatFormat{3, n - 3}, 256).luts);
  }
}

TEST(CostModelFig8, BallparkMatchesPaper) {
  // Paper Fig. 8 at n=8 (approximate pixel reads): fixed ~240, float ~700,
  // posit ~1100-1300. Accept a generous +-40% band: this is a model.
  EXPECT_NEAR(fixed8(4).luts, 240, 100);
  EXPECT_NEAR(float8(4).luts, 700, 280);
  EXPECT_NEAR(posit8(1).luts, 1200, 480);
}

// --- Fig. 6: dynamic range vs fmax ------------------------------------------

TEST(CostModelFig6, FixedIsFastest) {
  const double f_fixed = fixed8(4).fmax_hz;
  EXPECT_GT(f_fixed, posit8(0).fmax_hz);
  EXPECT_GT(f_fixed, float8(2).fmax_hz);
}

TEST(CostModelFig6, PositBeatsFloatAtComparableDynamicRange) {
  // Fig. 6's claim compares the two frontiers at similar dynamic range: for
  // (posit, float) pairs at n=8 whose dynamic ranges are within 1.5x of each
  // other, the posit must clock at least as fast even when it offers *more*
  // dynamic range.
  int compared = 0;
  for (int es = 0; es <= 3; ++es) {
    for (int we = 2; we <= 5; ++we) {
      const EmacSynthesis p = posit8(es);
      const EmacSynthesis f = float8(we);
      const double ratio = f.dynamic_range_decades / p.dynamic_range_decades;
      if (ratio < 2.0 / 3.0 || ratio > 1.5) continue;
      ++compared;
      EXPECT_GE(p.fmax_hz * 1.02, f.fmax_hz)
          << "posit es=" << es << " (DR " << p.dynamic_range_decades
          << ") vs float we=" << we << " (DR " << f.dynamic_range_decades << ")";
      EXPECT_GE(p.dynamic_range_decades * 1.5, f.dynamic_range_decades);
    }
  }
  EXPECT_GE(compared, 3) << "comparison window too narrow to be meaningful";
}

TEST(CostModelFig6, FmaxFallsWithDynamicRange) {
  // Within a format family, more dynamic range -> wider accumulator ->
  // longer critical path.
  EXPECT_GT(posit8(0).fmax_hz, posit8(2).fmax_hz);
  EXPECT_GT(float8(3).fmax_hz, float8(5).fmax_hz);
}

TEST(CostModelFig6, AbsoluteFrequencyBallpark) {
  // Paper Fig. 6 y-range is roughly 1.5e8..6.5e8 Hz.
  for (int n = 5; n <= 8; ++n) {
    for (const auto& s : synthesize_grid(n, 256)) {
      EXPECT_GT(s.fmax_hz, 1.0e8) << s.format.name();
      EXPECT_LT(s.fmax_hz, 8.0e8) << s.format.name();
    }
  }
}

// --- Fig. 7: EDP ordering -----------------------------------------------------

TEST(CostModelFig7, FixedHasLowestEdpAtEveryWidth) {
  for (int n = 5; n <= 8; ++n) {
    const auto fixed = synthesize_emac(num::FixedFormat{n, n / 2}, 256);
    const auto posit = synthesize_emac(num::PositFormat{n, 1}, 256);
    const auto flt = synthesize_emac(num::FloatFormat{3, n - 4}, 256);
    EXPECT_LT(fixed.edp_j_s, posit.edp_j_s) << n;
    EXPECT_LT(fixed.edp_j_s, flt.edp_j_s) << n;
  }
}

TEST(CostModelFig7, FloatAndPositEdpComparable) {
  // "the EDPs of the floating point and posit EMACs are similar": within 3x.
  for (int n = 6; n <= 8; ++n) {
    const auto posit = synthesize_emac(num::PositFormat{n, 1}, 256);
    const auto flt = synthesize_emac(num::FloatFormat{4, n - 5}, 256);
    const double ratio = posit.edp_j_s / flt.edp_j_s;
    EXPECT_GT(ratio, 1.0 / 3.0) << n;
    EXPECT_LT(ratio, 3.0) << n;
  }
}

TEST(CostModelFig7, EdpGrowsWithN) {
  for (int n = 5; n < 8; ++n) {
    EXPECT_LT(synthesize_emac(num::PositFormat{n, 1}, 256).edp_j_s,
              synthesize_emac(num::PositFormat{n + 1, 1}, 256).edp_j_s);
  }
}

// --- misc ---------------------------------------------------------------------

TEST(CostModel, AccumulatorWidthsMatchEquations) {
  const auto p = posit8(0, 256);
  EXPECT_EQ(p.accumulator_bits, 4u * 6 + 2 + 8);  // eq. (4)
  const auto x = fixed8(4, 256);
  EXPECT_EQ(x.accumulator_bits, 8u + 14 + 2);  // eq. (3)
}

TEST(CostModel, GridCoversAllFormats) {
  const auto grid = synthesize_grid(8, 128);
  EXPECT_EQ(grid.size(), num::paper_format_grid(8).size());
  for (const auto& s : grid) {
    EXPECT_GT(s.luts, 0);
    EXPECT_GT(s.fmax_hz, 0);
    EXPECT_GT(s.dyn_energy_per_op_j, 0);
  }
}

TEST(CostModel, PowerConsistency) {
  const auto s = posit8(1);
  EXPECT_NEAR(s.dyn_power_w, s.dyn_energy_per_op_j * s.fmax_hz, 1e-12);
  EXPECT_NEAR(s.edp_j_s, s.dyn_energy_per_op_j * s.critical_path_ns * 1e-9,
              s.edp_j_s * 1e-9);
}

}  // namespace
}  // namespace dp::hw
