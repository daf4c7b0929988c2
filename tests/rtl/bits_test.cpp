// Unit and property tests for dp::rtl::Bits, the RTL bit-vector substrate.
//
// Property tests model Bits of width <= 127 with unsigned __int128 and check
// every operation against the reference model across random samples and
// boundary widths.

#include "rtl/bits.hpp"

#include <gtest/gtest.h>

#include <random>

namespace dp::rtl {
namespace {

using u128 = unsigned __int128;

u128 mask_for(std::size_t width) {
  return width >= 128 ? ~u128{0} : ((u128{1} << width) - 1);
}

Bits make(std::size_t width, u128 value) {
  Bits out(width);
  value &= mask_for(width);
  for (std::size_t i = 0; i < width && i < 128; ++i) {
    out.set_bit(i, (value >> i) & 1);
  }
  return out;
}

u128 value_of(const Bits& b) {
  u128 v = 0;
  for (std::size_t i = 0; i < b.width() && i < 128; ++i) {
    if (b.bit(i)) v |= u128{1} << i;
  }
  return v;
}

TEST(BitsConstruct, ZeroWidthThrows) { EXPECT_THROW(Bits(0), std::invalid_argument); }

TEST(BitsConstruct, ValueTruncatesToWidth) {
  const Bits b(4, 0xFFu);
  EXPECT_EQ(b.to_u64(), 0xFu);
  EXPECT_EQ(b.width(), 4u);
}

TEST(BitsConstruct, WideZero) {
  const Bits b(200);
  EXPECT_TRUE(b.is_zero());
  EXPECT_EQ(b.lzd(), 200u);
}

TEST(BitsString, RoundTrip) {
  const std::string s = "1011001110001111";
  EXPECT_EQ(Bits::from_string(s).to_string(), s);
}

TEST(BitsString, RejectsBadChar) {
  EXPECT_THROW(Bits::from_string("10x1"), std::invalid_argument);
  EXPECT_THROW(Bits::from_string(""), std::invalid_argument);
}

TEST(BitsAccess, SetAndGet) {
  Bits b(70);
  b.set_bit(69, true);
  b.set_bit(0, true);
  EXPECT_TRUE(b.bit(69));
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(35));
  b.set_bit(69, false);
  EXPECT_FALSE(b.bit(69));
  EXPECT_THROW(b.bit(70), std::out_of_range);
  EXPECT_THROW(b.set_bit(70, true), std::out_of_range);
}

TEST(BitsOnes, AllSet) {
  const Bits b = Bits::ones(67);
  EXPECT_TRUE((~b).is_zero());
  EXPECT_EQ(b.lzd(), 0u);
}

TEST(BitsSlice, Basic) {
  const Bits b = Bits::from_string("11010110");
  EXPECT_EQ(b.slice(7, 4).to_string(), "1101");
  EXPECT_EQ(b.slice(3, 0).to_string(), "0110");
  EXPECT_EQ(b.slice(4, 4).to_string(), "1");
  EXPECT_EQ(b.slice(3, 3).to_string(), "0");
  EXPECT_EQ(b.slice(5, 1).to_string(), "01011");
  EXPECT_THROW(b.slice(8, 0), std::out_of_range);
  EXPECT_THROW(b.slice(2, 3), std::invalid_argument);
}

TEST(BitsResize, TruncateAndExtend) {
  const Bits b = Bits::from_string("1101");
  EXPECT_EQ(b.resize(2).to_string(), "01");
  EXPECT_EQ(b.resize(6).to_string(), "001101");
}

TEST(BitsLogic, WidthMismatchThrows) {
  EXPECT_THROW(Bits(4) + Bits(5), std::invalid_argument);
}

TEST(BitsReduce, OrAndXor) {
  Bits top(80);
  EXPECT_FALSE(top.or_reduce());
  top.set_bit(79, true);
  EXPECT_TRUE(top.or_reduce());
}

TEST(BitsShift, BeyondWidthIsZero) {
  const Bits b = Bits::ones(33);
  EXPECT_TRUE(b.shl(33).is_zero());
  EXPECT_TRUE(b.shr(40).is_zero());
  EXPECT_EQ(b.sra(40), Bits::ones(33));  // MSB set -> all ones
  EXPECT_TRUE(Bits(33, 5).sra(40).is_zero());
}

TEST(BitsArithmetic, NegateExtremes) {
  // Two's complement of the most negative value is itself.
  Bits most_neg(8);
  most_neg.set_bit(7, true);
  EXPECT_EQ(most_neg.negate(), most_neg);
  EXPECT_EQ(Bits(8, 1).negate().to_u64(), 0xFFu);
  EXPECT_TRUE(Bits(8, 0).negate().is_zero());
}

TEST(BitsArithmetic, AddCarriesAcrossLimbs) {
  const Bits a = Bits::ones(130);
  const Bits one(130, 1);
  EXPECT_TRUE((a + one).is_zero());  // modular wraparound
}

TEST(BitsMul, WideProduct) {
  const Bits a(64, 0xFFFFFFFFFFFFFFFFull);
  const Bits b(64, 0xFFFFFFFFFFFFFFFFull);
  const Bits p = a.mul_wide(b);
  EXPECT_EQ(p.width(), 128u);
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  const u128 expect = (u128{0} - 1) - ((u128{1} << 65) - 2);
  EXPECT_EQ(value_of(p), expect);
}

TEST(BitsConvert, SignedValues) {
  EXPECT_EQ(Bits::from_string("1111").to_i64(), -1);
  EXPECT_EQ(Bits::from_string("1000").to_i64(), -8);
  EXPECT_EQ(Bits::from_string("0111").to_i64(), 7);
}

TEST(BitsConvert, ToU64Guards) {
  EXPECT_THROW((void)Bits(65).to_u64(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Property tests against the u128 reference model.
// ---------------------------------------------------------------------------

class BitsModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsModelTest, ArithmeticMatchesModel) {
  const std::size_t w = GetParam();
  std::mt19937_64 rng(0xC0FFEE ^ w);
  const u128 m = mask_for(w);
  for (int iter = 0; iter < 300; ++iter) {
    const u128 xa = ((u128{rng()} << 64) | rng()) & m;
    const u128 xb = ((u128{rng()} << 64) | rng()) & m;
    const Bits a = make(w, xa);
    const Bits b = make(w, xb);

    EXPECT_EQ(value_of(a + b), (xa + xb) & m);
    EXPECT_EQ(value_of(a.negate()), (~xa + 1) & m);
    EXPECT_EQ(value_of(~a), ~xa & m);
    EXPECT_EQ(a == b, xa == xb);
  }
}

TEST_P(BitsModelTest, ShiftsMatchModel) {
  const std::size_t w = GetParam();
  std::mt19937_64 rng(0xBEEF ^ w);
  const u128 m = mask_for(w);
  for (int iter = 0; iter < 200; ++iter) {
    const u128 xa = ((u128{rng()} << 64) | rng()) & m;
    const std::size_t k = rng() % (w + 10);
    const Bits a = make(w, xa);
    const u128 shl_ref = k >= w ? 0 : (xa << k) & m;
    const u128 shr_ref = k >= w ? 0 : xa >> k;
    EXPECT_EQ(value_of(a.shl(k)), shl_ref);
    EXPECT_EQ(value_of(a.shr(k)), shr_ref);
    // sra: replicate sign bit.
    u128 sra_ref;
    const bool neg = (xa >> (w - 1)) & 1;
    if (k >= w) {
      sra_ref = neg ? m : 0;
    } else {
      sra_ref = xa >> k;
      if (neg) sra_ref |= m & ~(m >> k);
    }
    EXPECT_EQ(value_of(a.sra(k)), sra_ref);
  }
}

TEST_P(BitsModelTest, SliceConcatInverse) {
  const std::size_t w = GetParam();
  if (w < 2) GTEST_SKIP();
  std::mt19937_64 rng(0xABCD ^ w);
  for (int iter = 0; iter < 100; ++iter) {
    const u128 xa = ((u128{rng()} << 64) | rng()) & mask_for(w);
    const Bits a = make(w, xa);
    const std::size_t cut = 1 + rng() % (w - 1);
    const Bits hi = a.slice(w - 1, cut);
    const Bits lo = a.slice(cut - 1, 0);
    EXPECT_EQ(hi.width(), w - cut);
    EXPECT_EQ(lo.width(), cut);
    EXPECT_EQ(value_of(hi), xa >> cut);
    EXPECT_EQ(value_of(lo), xa & mask_for(cut));
  }
}

TEST_P(BitsModelTest, LzdMatchesModel) {
  const std::size_t w = GetParam();
  std::mt19937_64 rng(0x5EED ^ w);
  for (int iter = 0; iter < 100; ++iter) {
    u128 xa = ((u128{rng()} << 64) | rng()) & mask_for(w);
    if (iter % 7 == 0) xa = 0;
    const Bits a = make(w, xa);
    std::size_t ref = 0;
    for (std::size_t i = w; i-- > 0;) {
      if ((xa >> i) & 1) break;
      ++ref;
    }
    EXPECT_EQ(a.lzd(), ref);
  }
}

TEST_P(BitsModelTest, MulWideMatchesModel) {
  const std::size_t w = GetParam();
  if (w > 63) GTEST_SKIP();  // keep the reference product within u128
  std::mt19937_64 rng(0xFACE ^ w);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t xa = rng() & static_cast<std::uint64_t>(mask_for(w));
    const std::uint64_t xb = rng() & static_cast<std::uint64_t>(mask_for(w));
    const Bits p = Bits(w, xa).mul_wide(Bits(w, xb));
    EXPECT_EQ(p.width(), 2 * w);
    EXPECT_EQ(value_of(p), static_cast<u128>(xa) * xb);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsModelTest,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 31, 32, 33, 63, 64, 65, 96, 127),
                         [](const auto& info) { return "w" + std::to_string(info.param); });

// mul_wide beyond the model range: check via schoolbook identity on limbs.
TEST(BitsMulWide, VeryWideAssociativityWithShift) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const std::uint64_t x = rng();
    Bits a(200);
    a = a.add_u64(x);
    // (a << 5) * 3 == (a * 3) << 5
    const Bits three(200, 3);
    const Bits lhs = a.shl(5).mul_wide(three);
    const Bits rhs = a.mul_wide(three).shl(5);
    EXPECT_EQ(lhs, rhs);
  }
}

}  // namespace
}  // namespace dp::rtl
