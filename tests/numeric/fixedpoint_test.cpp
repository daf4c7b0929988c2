// Tests for saturating fixed-point arithmetic.

#include "numeric/fixedpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dp::num {
namespace {

TEST(FixedFormatTest, Validation) {
  EXPECT_THROW(validate(FixedFormat{1, 0}), std::invalid_argument);
  EXPECT_THROW(validate(FixedFormat{33, 2}), std::invalid_argument);
  EXPECT_THROW(validate(FixedFormat{8, 8}), std::invalid_argument);
  EXPECT_THROW(validate(FixedFormat{8, -1}), std::invalid_argument);
  EXPECT_NO_THROW(validate(FixedFormat{8, 7}));
}

TEST(FixedFormatTest, Ranges) {
  const FixedFormat fmt{8, 4};  // Q4.4
  EXPECT_EQ(fmt.raw_max(), 127);
  EXPECT_EQ(fmt.raw_min(), -128);
  EXPECT_DOUBLE_EQ(fmt.max_value(), 127.0 / 16.0);
  EXPECT_DOUBLE_EQ(fmt.min_positive(), 1.0 / 16.0);
  EXPECT_NEAR(fmt.dynamic_range(), std::log10(127.0), 1e-12);
}

TEST(FixedRaw, SignedPatternRoundTrip) {
  const FixedFormat fmt{8, 4};
  for (std::int64_t raw = fmt.raw_min(); raw <= fmt.raw_max(); ++raw) {
    EXPECT_EQ(fixed_raw(fixed_from_raw(raw, fmt), fmt), raw);
  }
}

TEST(FixedRaw, SaturatesOutOfRange) {
  const FixedFormat fmt{6, 2};
  EXPECT_EQ(fixed_raw(fixed_from_raw(1000, fmt), fmt), fmt.raw_max());
  EXPECT_EQ(fixed_raw(fixed_from_raw(-1000, fmt), fmt), fmt.raw_min());
}

TEST(FixedConvert, ExhaustiveRoundTrip) {
  for (int n = 4; n <= 10; ++n) {
    for (int q = 0; q < n; q += 2) {
      const FixedFormat fmt{n, q};
      for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const double v = fixed_to_double(bits, fmt);
        EXPECT_EQ(fixed_from_double(v, fmt), bits) << fmt.name() << " bits=" << bits;
      }
    }
  }
}

TEST(FixedConvert, RneTies) {
  const FixedFormat fmt{8, 4};
  // 2.5 ulp = raw 2.5 -> ties to even raw 2; 3.5 -> 4.
  EXPECT_EQ(fixed_raw(fixed_from_double(2.5 / 16.0, fmt), fmt), 2);
  EXPECT_EQ(fixed_raw(fixed_from_double(3.5 / 16.0, fmt), fmt), 4);
  EXPECT_EQ(fixed_raw(fixed_from_double(-2.5 / 16.0, fmt), fmt), -2);
  EXPECT_EQ(fixed_raw(fixed_from_double(-3.5 / 16.0, fmt), fmt), -4);
}

TEST(FixedConvert, SaturatesAndRejectsNaN) {
  const FixedFormat fmt{8, 4};
  EXPECT_EQ(fixed_raw(fixed_from_double(1e9, fmt), fmt), fmt.raw_max());
  EXPECT_EQ(fixed_raw(fixed_from_double(-1e9, fmt), fmt), fmt.raw_min());
  EXPECT_THROW(fixed_from_double(std::nan(""), fmt), std::domain_error);
}

TEST(FixedArith, AddSaturates) {
  const FixedFormat fmt{8, 0};
  EXPECT_EQ(fixed_raw(fixed_add(fixed_from_raw(100, fmt), fixed_from_raw(100, fmt), fmt), fmt),
            127);
  EXPECT_EQ(fixed_raw(fixed_add(fixed_from_raw(-100, fmt), fixed_from_raw(-100, fmt), fmt), fmt),
            -128);
  EXPECT_EQ(fixed_raw(fixed_add(fixed_from_raw(100, fmt), fixed_from_raw(-100, fmt), fmt), fmt),
            0);
}

TEST(FixedArith, ExhaustiveAddSubAgainstModel) {
  const FixedFormat fmt{6, 3};
  for (std::uint32_t a = 0; a < (1u << fmt.n); ++a) {
    for (std::uint32_t b = 0; b < (1u << fmt.n); ++b) {
      const std::int64_t ra = fixed_raw(a, fmt);
      const std::int64_t rb = fixed_raw(b, fmt);
      EXPECT_EQ(fixed_raw(fixed_add(a, b, fmt), fmt),
                std::clamp(ra + rb, fmt.raw_min(), fmt.raw_max()));
    }
  }
}

TEST(FixedArith, MulRoundingModes) {
  const FixedFormat fmt{8, 4};
  const auto enc = [&](double x) { return fixed_from_double(x, fmt); };
  // 0.25 * 0.25 = 0.0625 = 1 ulp exactly.
  EXPECT_DOUBLE_EQ(fixed_to_double(fixed_mul(enc(0.25), enc(0.25), fmt), fmt), 0.0625);
  // 0.0625 * 0.5 = 0.03125 = half an ulp: RNE ties to even (0).
  EXPECT_DOUBLE_EQ(fixed_to_double(fixed_mul(enc(0.0625), enc(0.5), fmt), fmt), 0.0);
  // 0.1875 * 0.5 = 0.09375 = 1.5 ulp: ties to even (2 ulp).
  EXPECT_DOUBLE_EQ(fixed_to_double(fixed_mul(enc(0.1875), enc(0.5), fmt), fmt), 0.125);
}

TEST(FixedArith, MulSaturates) {
  const FixedFormat fmt{8, 4};
  const std::uint32_t big = fixed_from_raw(127, fmt);
  EXPECT_EQ(fixed_raw(fixed_mul(big, big, fmt), fmt), 127);
  const std::uint32_t nbig = fixed_from_raw(-128, fmt);
  EXPECT_EQ(fixed_raw(fixed_mul(nbig, big, fmt), fmt), -128);
  EXPECT_EQ(fixed_raw(fixed_mul(nbig, nbig, fmt), fmt), 127);
}

TEST(FixedArith, NegSaturatesMostNegative) {
  const FixedFormat fmt{8, 4};
  EXPECT_EQ(fixed_raw(fixed_neg(fixed_from_raw(-128, fmt), fmt), fmt), 127);
  EXPECT_EQ(fixed_raw(fixed_neg(fixed_from_raw(5, fmt), fmt), fmt), -5);
}

}  // namespace
}  // namespace dp::num
