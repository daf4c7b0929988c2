// Tests for the posit codec and the naive-MAC add/multiply.
//
// The reference decoder below is written independently of the library (string
// parsing + long double math, directly transcribing eq. (2) of the paper) so
// agreement over every pattern of every format is strong evidence both are
// right.

#include "numeric/posit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

namespace dp::num {
namespace {

/// Independent reference: decode an n-bit pattern by literal field parsing.
/// Returns nullopt for zero/NaR.
std::optional<long double> reference_decode(std::uint32_t bits, const PositFormat& fmt) {
  const int n = fmt.n;
  bits &= fmt.mask();
  if (bits == 0) return std::nullopt;                       // zero
  if (bits == (1u << (n - 1))) return std::nullopt;         // NaR
  const bool neg = (bits >> (n - 1)) & 1;
  std::uint32_t mag = neg ? ((~bits + 1u) & fmt.mask()) : bits;

  // Render to a string of n-1 bits after the sign and parse per eq. (2).
  std::string s;
  for (int i = n - 2; i >= 0; --i) s.push_back(((mag >> i) & 1u) ? '1' : '0');

  std::size_t pos = 0;
  const char r = s[0];
  std::size_t run = 0;
  while (pos < s.size() && s[pos] == r) {
    ++run;
    ++pos;
  }
  const long k = (r == '1') ? static_cast<long>(run) - 1 : -static_cast<long>(run);
  if (pos < s.size()) ++pos;  // skip terminator

  long e = 0;
  int ecount = 0;
  while (ecount < fmt.es) {
    e <<= 1;
    if (pos < s.size()) {
      e |= (s[pos] == '1');
      ++pos;
    }
    ++ecount;  // truncated exponent bits read as zero
  }

  long double f = 1.0L;
  long double w = 0.5L;
  while (pos < s.size()) {
    if (s[pos] == '1') f += w;
    w *= 0.5L;
    ++pos;
  }

  const long double useed = std::pow(2.0L, static_cast<long double>(1L << fmt.es));
  long double v = std::pow(useed, static_cast<long double>(k)) *
                  std::pow(2.0L, static_cast<long double>(e)) * f;
  return neg ? -v : v;
}

std::vector<PositFormat> small_formats() {
  std::vector<PositFormat> fmts;
  for (int n = 3; n <= 10; ++n) {
    for (int es = 0; es <= 3 && es <= n - 2; ++es) fmts.push_back({n, es});
  }
  fmts.push_back({12, 1});
  fmts.push_back({12, 2});
  return fmts;
}

// ---------------------------------------------------------------------------
// Table I of the paper: regime interpretation.
// ---------------------------------------------------------------------------
TEST(PositRegime, TableI) {
  // Patterns embedded into an 8-bit posit (es=0); the regime field starts at
  // bit 6. Table I: 0001->-3, 001->-2, 01->-1, 10->0, 110->1, 1110->2.
  const PositFormat fmt{8, 0};
  struct Case {
    std::string pattern;  // full 8-bit pattern, sign=0
    int k;
  };
  const std::vector<Case> cases = {
      {"00001111", -3}, {"00011111", -2}, {"00111111", -1},
      {"01011111", 0},  {"01101111", 1},  {"01110111", 2},
  };
  for (const auto& c : cases) {
    std::uint32_t bits = 0;
    for (const char ch : c.pattern) bits = (bits << 1) | (ch == '1');
    EXPECT_EQ(posit_fields(bits, fmt).k, c.k) << c.pattern;
  }
}

TEST(PositFields, MaxposMinpos) {
  const PositFormat fmt{8, 2};
  const PositFields maxf = posit_fields(0x7F, fmt);
  EXPECT_EQ(maxf.k, 6);  // regime run of 7 ones, no terminator
  EXPECT_EQ(maxf.nfrac, 0);
  const PositFields minf = posit_fields(0x01, fmt);
  EXPECT_EQ(minf.k, -6);
  EXPECT_DOUBLE_EQ(posit_to_double(0x7F, fmt), fmt.maxpos());
  EXPECT_DOUBLE_EQ(posit_to_double(0x01, fmt), fmt.minpos());
}

TEST(PositFields, ZeroNaRThrow) {
  const PositFormat fmt{8, 1};
  EXPECT_THROW(posit_fields(0x00, fmt), std::domain_error);
  EXPECT_THROW(posit_fields(0x80, fmt), std::domain_error);
}

TEST(PositFormatTest, Validation) {
  EXPECT_THROW(validate(PositFormat{1, 0}), std::invalid_argument);
  EXPECT_THROW(validate(PositFormat{33, 0}), std::invalid_argument);
  EXPECT_THROW(validate(PositFormat{8, -1}), std::invalid_argument);
  EXPECT_THROW(validate(PositFormat{8, 6}), std::invalid_argument);
  EXPECT_NO_THROW(validate(PositFormat{8, 0}));
}

TEST(PositFormatTest, Characteristics) {
  // Paper: useed = 2^(2^es), max = useed^(n-2), min = useed^-(n-2).
  const PositFormat p8_0{8, 0};
  EXPECT_DOUBLE_EQ(p8_0.useed(), 2.0);
  EXPECT_DOUBLE_EQ(p8_0.maxpos(), 64.0);
  EXPECT_DOUBLE_EQ(p8_0.minpos(), 1.0 / 64.0);
  const PositFormat p8_2{8, 2};
  EXPECT_DOUBLE_EQ(p8_2.useed(), 16.0);
  EXPECT_DOUBLE_EQ(p8_2.maxpos(), std::pow(16.0, 6.0));
  EXPECT_NEAR(p8_2.dynamic_range(), std::log10(p8_2.maxpos() / p8_2.minpos()), 1e-9);
}

// ---------------------------------------------------------------------------
// Exhaustive codec checks.
// ---------------------------------------------------------------------------

class PositExhaustive : public ::testing::TestWithParam<PositFormat> {};

TEST_P(PositExhaustive, DecodeMatchesReference) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n); ++bits) {
    const auto ref = reference_decode(bits, fmt);
    const double got = posit_to_double(bits, fmt);
    if (!ref.has_value()) {
      if (bits == 0) {
        EXPECT_EQ(got, 0.0);
      } else {
        EXPECT_TRUE(std::isnan(got));
      }
      continue;
    }
    EXPECT_DOUBLE_EQ(got, static_cast<double>(*ref)) << fmt.name() << " bits=" << bits;
  }
}

TEST_P(PositExhaustive, EncodeDecodeRoundTrip) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n); ++bits) {
    const double v = posit_to_double(bits, fmt);
    if (std::isnan(v)) continue;
    EXPECT_EQ(posit_from_double(v, fmt), bits) << fmt.name() << " bits=" << bits;
  }
}

TEST_P(PositExhaustive, TotalOrderIsMonotone) {
  const PositFormat fmt = GetParam();
  // Walk patterns in two's-complement order starting just above NaR.
  std::uint32_t prev = (fmt.nar_pattern() + 1) & fmt.mask();
  double prev_v = posit_to_double(prev, fmt);
  for (std::uint32_t i = 1; i < (1u << fmt.n) - 1; ++i) {
    const std::uint32_t cur = (fmt.nar_pattern() + 1 + i) & fmt.mask();
    if (cur == fmt.nar_pattern()) break;
    const double cur_v = posit_to_double(cur, fmt);
    EXPECT_LT(prev_v, cur_v) << fmt.name() << " at " << cur;
    EXPECT_TRUE(posit_less(prev, cur, fmt));
    EXPECT_FALSE(posit_less(cur, prev, fmt));
    prev_v = cur_v;
    prev = cur;
  }
}

TEST_P(PositExhaustive, NegationIsExactAndInvolutive) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n); ++bits) {
    const std::uint32_t neg = posit_neg(bits, fmt);
    EXPECT_EQ(posit_neg(neg, fmt), bits & fmt.mask());
    const double v = posit_to_double(bits, fmt);
    const double nv = posit_to_double(neg, fmt);
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(nv));
    } else {
      EXPECT_DOUBLE_EQ(nv, -v);
    }
  }
}

TEST_P(PositExhaustive, AbsIsNonNegative) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n); ++bits) {
    const double v = posit_to_double(posit_abs(bits, fmt), fmt);
    if (!std::isnan(v)) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST_P(PositExhaustive, NextPriorStep) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t bits = 0; bits < (1u << fmt.n); ++bits) {
    if (bits == fmt.nar_pattern()) continue;
    const std::uint32_t nx = posit_next(bits, fmt);
    if (nx != bits) {
      EXPECT_EQ(posit_prior(nx, fmt), bits);
      EXPECT_TRUE(posit_less(bits, nx, fmt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, PositExhaustive, ::testing::ValuesIn(small_formats()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "es" +
                                  std::to_string(info.param.es);
                         });

// ---------------------------------------------------------------------------
// Rounding behaviour of from_double.
// ---------------------------------------------------------------------------

TEST(PositRounding, SaturatesNotOverflows) {
  const PositFormat fmt{8, 0};  // maxpos = 64, minpos = 1/64
  EXPECT_EQ(posit_from_double(1e30, fmt), 0x7Fu);
  EXPECT_EQ(posit_from_double(-1e30, fmt), 0x81u);
  EXPECT_EQ(posit_from_double(1e-30, fmt), 0x01u);   // never rounds to zero
  EXPECT_EQ(posit_from_double(-1e-30, fmt), 0xFFu);
  EXPECT_EQ(posit_from_double(64.0, fmt), 0x7Fu);
  EXPECT_EQ(posit_from_double(65.0, fmt), 0x7Fu);
}

TEST(PositRounding, NearestIsChosen) {
  const PositFormat fmt{8, 0};
  // Walk all adjacent pairs of positive posits; midpoints must round to even.
  std::uint32_t a = 0x01;
  while (a != 0x7F) {
    const std::uint32_t b = posit_next(a, fmt);
    const double va = posit_to_double(a, fmt);
    const double vb = posit_to_double(b, fmt);
    const double mid = (va + vb) / 2.0;  // exact: dyadic rationals
    const std::uint32_t r = posit_from_double(mid, fmt);
    const std::uint32_t even = (a & 1u) == 0 ? a : b;
    EXPECT_EQ(r, even) << "between " << va << " and " << vb;
    // Strictly inside each half rounds to the closer endpoint.
    EXPECT_EQ(posit_from_double(std::nextafter(mid, va), fmt), a);
    EXPECT_EQ(posit_from_double(std::nextafter(mid, vb), fmt), b);
    a = b;
  }
}

TEST(PositRounding, InfinityGivesNaR) {
  const PositFormat fmt{8, 1};
  EXPECT_EQ(posit_from_double(std::numeric_limits<double>::infinity(), fmt), fmt.nar_pattern());
  EXPECT_EQ(posit_from_double(std::numeric_limits<double>::quiet_NaN(), fmt), fmt.nar_pattern());
}

// ---------------------------------------------------------------------------
// Arithmetic: exhaustive equivalence with exact double computation + RNE.
// For n <= 8 both sums and products of posit values are exact in double,
// so from_double(exact) is the correctly rounded answer.
// ---------------------------------------------------------------------------

class PositArithExhaustive : public ::testing::TestWithParam<PositFormat> {};

TEST_P(PositArithExhaustive, AddMatchesExact) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t a = 0; a < (1u << fmt.n); ++a) {
    for (std::uint32_t b = 0; b < (1u << fmt.n); ++b) {
      const std::uint32_t got = posit_add(a, b, fmt);
      if (a == fmt.nar_pattern() || b == fmt.nar_pattern()) {
        EXPECT_EQ(got, fmt.nar_pattern());
        continue;
      }
      const double exact = posit_to_double(a, fmt) + posit_to_double(b, fmt);
      EXPECT_EQ(got, posit_from_double(exact, fmt))
          << fmt.name() << " " << a << "+" << b;
    }
  }
}

TEST_P(PositArithExhaustive, MulMatchesExact) {
  const PositFormat fmt = GetParam();
  for (std::uint32_t a = 0; a < (1u << fmt.n); ++a) {
    for (std::uint32_t b = 0; b < (1u << fmt.n); ++b) {
      const std::uint32_t got = posit_mul(a, b, fmt);
      if (a == fmt.nar_pattern() || b == fmt.nar_pattern()) {
        EXPECT_EQ(got, fmt.nar_pattern());
        continue;
      }
      const double exact = posit_to_double(a, fmt) * posit_to_double(b, fmt);
      EXPECT_EQ(got, posit_from_double(exact, fmt))
          << fmt.name() << " " << a << "*" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, PositArithExhaustive,
                         ::testing::Values(PositFormat{5, 0}, PositFormat{6, 0},
                                           PositFormat{6, 1}, PositFormat{7, 0},
                                           PositFormat{7, 2}, PositFormat{8, 0},
                                           PositFormat{8, 1}, PositFormat{8, 2},
                                           PositFormat{8, 3}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "es" +
                                  std::to_string(info.param.es);
                         });

}  // namespace
}  // namespace dp::num
