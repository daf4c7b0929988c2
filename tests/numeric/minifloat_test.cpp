// Tests for the parameterized IEEE-style minifloat codec.
//
// The reference decoder transcribes the paper's field formulas directly
// (bias, expmax, subnormals) and is exhaustively compared with the library.

#include "numeric/minifloat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

namespace dp::num {
namespace {

/// Independent reference decode.
double reference_decode(std::uint32_t bits, const FloatFormat& fmt) {
  const std::uint32_t fmask = (1u << fmt.wf) - 1;
  const std::uint32_t emask = (1u << fmt.we) - 1;
  const std::uint32_t frac = bits & fmask;
  const std::uint32_t exp = (bits >> fmt.wf) & emask;
  const bool sign = (bits >> (fmt.we + fmt.wf)) & 1u;
  const double s = sign ? -1.0 : 1.0;
  const int bias = (1 << (fmt.we - 1)) - 1;
  if (exp == emask) {
    if (frac == 0) return s * std::numeric_limits<double>::infinity();
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (exp == 0) {
    return s * std::ldexp(static_cast<double>(frac), 1 - bias - fmt.wf);
  }
  return s * std::ldexp(1.0 + std::ldexp(static_cast<double>(frac), -fmt.wf),
                        static_cast<int>(exp) - bias);
}

std::vector<FloatFormat> small_formats() {
  std::vector<FloatFormat> fmts;
  for (int we = 2; we <= 5; ++we) {
    for (int wf = 1; wf <= 7; ++wf) fmts.push_back({we, wf});
  }
  fmts.push_back({5, 10});  // IEEE half precision
  fmts.push_back({8, 7});   // bfloat16
  return fmts;
}

TEST(FloatFormatTest, Validation) {
  EXPECT_THROW(validate(FloatFormat{1, 3}), std::invalid_argument);
  EXPECT_THROW(validate(FloatFormat{9, 3}), std::invalid_argument);
  EXPECT_THROW(validate(FloatFormat{4, 0}), std::invalid_argument);
  EXPECT_THROW(validate(FloatFormat{8, 30}), std::invalid_argument);
  EXPECT_NO_THROW(validate(FloatFormat{4, 3}));
}

TEST(FloatFormatTest, PaperCharacteristics) {
  // Paper formulas: bias = 2^(we-1)-1, expmax = 2^we-2,
  // max = 2^(expmax-bias) * (2 - 2^-wf), min = 2^(1-bias) * 2^-wf.
  const FloatFormat fmt{4, 3};  // 8-bit float
  EXPECT_EQ(fmt.bias(), 7);
  EXPECT_EQ(fmt.expmax(), 14);
  EXPECT_DOUBLE_EQ(fmt.max_value(), std::ldexp(2.0 - std::ldexp(1.0, -3), 14 - 7));
  EXPECT_DOUBLE_EQ(fmt.min_value(), std::ldexp(1.0, 1 - 7 - 3));
  EXPECT_EQ(fmt.n(), 8);
}

TEST(FloatFormatTest, HalfPrecisionConstants) {
  const FloatFormat half{5, 10};
  EXPECT_EQ(half.bias(), 15);
  EXPECT_DOUBLE_EQ(half.max_value(), 65504.0);
  EXPECT_DOUBLE_EQ(half.min_value(), std::ldexp(1.0, -24));
}

class FloatExhaustive : public ::testing::TestWithParam<FloatFormat> {};

TEST_P(FloatExhaustive, DecodeMatchesReference) {
  const FloatFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n()); ++bits) {
    const double ref = reference_decode(bits, fmt);
    const double got = float_to_double(bits, fmt);
    if (std::isnan(ref)) {
      EXPECT_TRUE(std::isnan(got)) << bits;
    } else {
      EXPECT_EQ(got, ref) << fmt.name() << " bits=" << bits;
      EXPECT_EQ(std::signbit(got), std::signbit(ref)) << "signed zero at " << bits;
    }
  }
}

TEST_P(FloatExhaustive, EncodeDecodeRoundTrip) {
  const FloatFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n()); ++bits) {
    const double v = float_to_double(bits, fmt);
    if (std::isnan(v)) {
      EXPECT_EQ(float_from_double(v, fmt), float_nan(fmt));
      continue;
    }
    EXPECT_EQ(float_from_double(v, fmt), bits) << fmt.name() << " bits=" << bits;
  }
}

// Sign-magnitude patterns order like their values (±0 tie).
TEST_P(FloatExhaustive, OrderMatchesValues) {
  const FloatFormat fmt = GetParam();
  const std::uint32_t sign = std::uint32_t{1} << (fmt.we + fmt.wf);
  const auto order_key = [&](std::uint32_t p) {
    const auto mag = static_cast<std::int64_t>(p & (sign - 1));
    return (p & sign) != 0 ? -mag : mag;
  };
  std::mt19937 rng(3);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint32_t a = rng() & fmt.mask();
    const std::uint32_t b = rng() & fmt.mask();
    const double va = float_to_double(a, fmt);
    const double vb = float_to_double(b, fmt);
    if (std::isnan(va) || std::isnan(vb)) continue;
    EXPECT_EQ(order_key(a) < order_key(b), va < vb) << fmt.name() << " " << a << " " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FloatExhaustive, ::testing::ValuesIn(small_formats()),
                         [](const auto& info) {
                           return "we" + std::to_string(info.param.we) + "wf" +
                                  std::to_string(info.param.wf);
                         });

// ---------------------------------------------------------------------------
// Rounding behaviour.
// ---------------------------------------------------------------------------

TEST(FloatRounding, SubnormalBoundaries) {
  const FloatFormat fmt{4, 3};
  const double minsub = fmt.min_value();
  // Exactly half the smallest subnormal is a tie -> rounds to even (zero).
  EXPECT_EQ(float_from_double(minsub / 2, fmt), float_zero(fmt));
  EXPECT_EQ(float_from_double(-minsub / 2, fmt), float_zero(fmt, true));
  // Slightly above half rounds to the smallest subnormal.
  EXPECT_EQ(float_to_double(float_from_double(minsub * 0.51, fmt), fmt), minsub);
  // Anything below half underflows to (signed) zero.
  EXPECT_EQ(float_from_double(minsub * 0.49, fmt), float_zero(fmt));
  // 1.5 * minsub is a tie between 1 and 2 subnormal ULPs -> even = 2.
  EXPECT_EQ(float_to_double(float_from_double(minsub * 1.5, fmt), fmt), 2 * minsub);
  // 2.5 * minsub tie -> even = 2.
  EXPECT_EQ(float_to_double(float_from_double(minsub * 2.5, fmt), fmt), 2 * minsub);
}

TEST(FloatRounding, SubnormalToNormalPromotion) {
  const FloatFormat fmt{4, 3};
  // Largest subnormal is (2^wf - 1) * minsub; just above its midpoint with
  // the smallest normal rounds up into the normal range.
  const double max_sub = (std::ldexp(1.0, fmt.wf) - 1) * fmt.min_value();
  const double min_norm = std::ldexp(1.0, static_cast<int>(fmt.emin()));
  const double mid = (max_sub + min_norm) / 2;
  EXPECT_EQ(float_to_double(float_from_double(mid, fmt), fmt), min_norm);  // tie -> even (normal)
  EXPECT_EQ(float_to_double(float_from_double(std::nextafter(mid, 0.0), fmt), fmt), max_sub);
}

TEST(FloatRounding, OverflowModes) {
  const FloatFormat fmt{4, 3};
  const double big = fmt.max_value() * 4;
  EXPECT_EQ(float_from_double(big, fmt), float_inf(fmt));
  EXPECT_EQ(float_from_double(-big, fmt), float_inf(fmt, true));
  EXPECT_EQ(float_to_double(float_from_double(big, fmt, FloatOverflow::kSaturate), fmt),
            fmt.max_value());
  // Just above max but below the overflow threshold (max + 1/2 ulp) stays max.
  const double ulp = std::ldexp(1.0, static_cast<int>(fmt.emax()) - fmt.wf);
  EXPECT_EQ(float_to_double(float_from_double(fmt.max_value() + ulp * 0.49, fmt), fmt),
            fmt.max_value());
  // At or beyond the threshold rounds to infinity under IEEE rules.
  EXPECT_EQ(float_from_double(fmt.max_value() + ulp * 0.51, fmt), float_inf(fmt));
}

TEST(FloatRounding, TiesToEvenInNormalRange) {
  const FloatFormat fmt{4, 3};
  // 1.0 has pattern frac=0 (even); halfway to the next value (1 + 2^-4) ties
  // down to 1.0; halfway between the next two values ties up.
  EXPECT_EQ(float_to_double(float_from_double(1.0 + std::ldexp(1.0, -4), fmt), fmt), 1.0);
  const double v1 = 1.0 + std::ldexp(1.0, -3);          // frac = 1 (odd)
  const double v2 = 1.0 + std::ldexp(2.0, -3);          // frac = 2 (even)
  const double mid = (v1 + v2) / 2;
  EXPECT_EQ(float_to_double(float_from_double(mid, fmt), fmt), v2);
}

// ---------------------------------------------------------------------------
// Arithmetic: exhaustive equivalence with exact double computation.
// Sums/products of two small minifloats are exact in double, so
// from_double(exact) is the correctly rounded reference.
// ---------------------------------------------------------------------------

class FloatArithExhaustive : public ::testing::TestWithParam<FloatFormat> {};

TEST_P(FloatArithExhaustive, AddMatchesExact) {
  const FloatFormat fmt = GetParam();
  for (std::uint32_t a = 0; a < (1u << fmt.n()); ++a) {
    for (std::uint32_t b = 0; b < (1u << fmt.n()); ++b) {
      const double va = float_to_double(a, fmt);
      const double vb = float_to_double(b, fmt);
      const std::uint32_t got = float_add(a, b, fmt);
      if (std::isnan(va) || std::isnan(vb)) {
        EXPECT_EQ(got, float_nan(fmt));
        continue;
      }
      if (std::isinf(va) && std::isinf(vb) && std::signbit(va) != std::signbit(vb)) {
        EXPECT_EQ(got, float_nan(fmt));
        continue;
      }
      const double exact = va + vb;
      const double got_v = float_to_double(got, fmt);
      const double ref_v = float_to_double(float_from_double(exact, fmt), fmt);
      EXPECT_EQ(got_v, ref_v) << fmt.name() << " " << va << "+" << vb;
    }
  }
}

TEST_P(FloatArithExhaustive, MulMatchesExact) {
  const FloatFormat fmt = GetParam();
  for (std::uint32_t a = 0; a < (1u << fmt.n()); ++a) {
    for (std::uint32_t b = 0; b < (1u << fmt.n()); ++b) {
      const double va = float_to_double(a, fmt);
      const double vb = float_to_double(b, fmt);
      const std::uint32_t got = float_mul(a, b, fmt);
      if (std::isnan(va) || std::isnan(vb) ||
          (std::isinf(va) && vb == 0.0) || (std::isinf(vb) && va == 0.0)) {
        EXPECT_EQ(got, float_nan(fmt));
        continue;
      }
      const double exact = va * vb;
      const double got_v = float_to_double(got, fmt);
      const double ref_v = float_to_double(float_from_double(exact, fmt), fmt);
      EXPECT_EQ(got_v, ref_v) << fmt.name() << " " << va << "*" << vb;
      if (got_v == 0.0 && exact == 0.0) {
        EXPECT_EQ(std::signbit(got_v), std::signbit(exact)) << "signed zero product";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FloatArithExhaustive,
                         ::testing::Values(FloatFormat{3, 2}, FloatFormat{4, 3},
                                           FloatFormat{3, 4}, FloatFormat{5, 2}),
                         [](const auto& info) {
                           return "we" + std::to_string(info.param.we) + "wf" +
                                  std::to_string(info.param.wf);
                         });

TEST(FloatArith, NegAbs) {
  const FloatFormat fmt{4, 3};
  const std::uint32_t x = float_from_double(-2.5, fmt);
  EXPECT_EQ(float_to_double(float_neg(x, fmt), fmt), 2.5);
  EXPECT_EQ(float_neg(float_neg(x, fmt), fmt), x);
}

}  // namespace
}  // namespace dp::num
