// Tests for the shared soft-float core (exact unpacked arithmetic).

#include "numeric/unpacked.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace dp::num {
namespace {

double rt(double x) { return pack_double(unpack_double(x)); }

TEST(UnpackDouble, RoundTripExactValues) {
  for (const double x : {1.0, -1.0, 0.5, 3.14159, -1e300, 1e-300, 6.25e-2, 123456789.0}) {
    EXPECT_EQ(rt(x), x);
  }
}

TEST(UnpackDouble, RejectsNonFinite) {
  EXPECT_THROW(unpack_double(0.0), std::domain_error);
  EXPECT_THROW(unpack_double(std::nan("")), std::domain_error);
  EXPECT_THROW(unpack_double(INFINITY), std::domain_error);
}

TEST(UnpackDouble, NormalizedInvariant) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (int i = 0; i < 1000; ++i) {
    const double x = dist(rng);
    if (x == 0.0) continue;
    const Unpacked u = unpack_double(x);
    EXPECT_TRUE(u.frac & (std::uint64_t{1} << 63)) << "hidden bit must be set";
    EXPECT_FALSE(u.sticky);
    EXPECT_EQ(u.neg, std::signbit(x));
  }
}

TEST(MulUnpacked, MatchesDoubleOnExactProducts) {
  std::mt19937_64 rng(2);
  // Use 26-bit integers so products are exact in double.
  for (int i = 0; i < 2000; ++i) {
    const double a = static_cast<double>(static_cast<std::int64_t>(rng() % (1u << 26)) -
                                         (1 << 25)) /
                     64.0;
    const double b = static_cast<double>(static_cast<std::int64_t>(rng() % (1u << 26)) -
                                         (1 << 25)) /
                     128.0;
    if (a == 0.0 || b == 0.0) continue;
    const Unpacked p = mul_unpacked(unpack_double(a), unpack_double(b));
    EXPECT_EQ(pack_double(p), a * b);
    EXPECT_FALSE(p.sticky) << "exact product must not set sticky";
  }
}

TEST(MulUnpacked, StickySetOnInexact) {
  // Two full-width 53-bit mantissas: product needs 106 bits > 64 kept.
  const double a = 1.0 + std::ldexp(1.0, -52);
  const Unpacked p = mul_unpacked(unpack_double(a), unpack_double(a));
  EXPECT_TRUE(p.sticky);
}

TEST(AddUnpacked, MatchesDoubleOnExactSums) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double a =
        static_cast<double>(static_cast<std::int64_t>(rng() % (1u << 30)) - (1 << 29)) / 1024.0;
    const double b =
        static_cast<double>(static_cast<std::int64_t>(rng() % (1u << 30)) - (1 << 29)) / 1024.0;
    if (a == 0.0 || b == 0.0) continue;
    const Unpacked s = add_unpacked(unpack_double(a), unpack_double(b));
    if (a + b == 0.0) {
      EXPECT_EQ(s.frac, 0u);
    } else {
      EXPECT_EQ(pack_double(s), a + b);
    }
  }
}

TEST(AddUnpacked, ExactCancellation) {
  const Unpacked s = add_unpacked(unpack_double(1.5), unpack_double(-1.5));
  EXPECT_EQ(s.frac, 0u);
  EXPECT_FALSE(s.sticky);
}

TEST(AddUnpacked, NearCancellationKeepsExactResidue) {
  // (1 + 2^-52) - 1 = 2^-52 exactly.
  const double a = 1.0 + std::ldexp(1.0, -52);
  const Unpacked s = add_unpacked(unpack_double(a), unpack_double(-1.0));
  EXPECT_EQ(pack_double(s), std::ldexp(1.0, -52));
  EXPECT_FALSE(s.sticky);
}

TEST(AddUnpacked, LargeAlignmentSticky) {
  // 2^80 + 1: the 1 is far below the kept 64 bits -> sticky.
  const Unpacked s = add_unpacked(unpack_double(std::ldexp(1.0, 80)), unpack_double(1.0));
  EXPECT_TRUE(s.sticky);
  EXPECT_EQ(pack_double(s), std::ldexp(1.0, 80));  // RNE back to double drops it
}

TEST(AddUnpacked, SubtractionBorrowTruncationSemantics) {
  // 2^80 - 1: true value is just below 2^80; the computed unpacked value must
  // be a *truncation* of the truth (frac all-ones pattern with sticky), so
  // that a subsequent RNE rounds correctly instead of up.
  const Unpacked s = add_unpacked(unpack_double(std::ldexp(1.0, 80)), unpack_double(-1.0));
  EXPECT_TRUE(s.sticky);
  EXPECT_EQ(s.frac, ~std::uint64_t{0}) << "expected 0.111... truncation pattern";
  EXPECT_EQ(s.scale, 79);
  // Rounding to double precision: nearest double to 2^80 - 1 is 2^80 itself.
  EXPECT_EQ(pack_double(s), std::ldexp(1.0, 80));
}

TEST(PackDouble, ZeroFraction) {
  EXPECT_EQ(pack_double(Unpacked{false, 0, 0, false}), 0.0);
  EXPECT_TRUE(std::signbit(pack_double(Unpacked{true, 0, 0, false})));
}

}  // namespace
}  // namespace dp::num
