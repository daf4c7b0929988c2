// Tests for exact posit accumulation (the quire of eq. (4)), fused
// multiply-add and posit format conversion. The quire is the accumulator of
// the posit EMAC units, so every Quire and PositFma case runs on both units
// make_emac can build: the functional model (PositEmacFast) and the
// Algorithm 1 transcription (PositEmacRtl). The headline property of exact
// accumulation — the result is independent of summation order — is checked
// directly. Conversion goes through num::convert, the mixed-precision
// boundary re-encoder.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "emac/posit_emac.hpp"
#include "numeric/format.hpp"
#include "numeric/posit.hpp"

namespace dp::num {
namespace {

std::uint32_t random_real(const PositFormat& fmt, std::mt19937& rng) {
  for (;;) {
    const std::uint32_t b = rng() & fmt.mask();
    if (b != fmt.nar_pattern()) return b;
  }
}

/// A posit EMAC unit for up to `k` products; `bit_accurate` picks the RTL
/// model.
std::unique_ptr<emac::Emac> unit(const PositFormat& fmt, std::size_t k, bool bit_accurate) {
  return emac::make_emac(Format{fmt}, k, bit_accurate);
}

const char* model_name(bool bit_accurate) {
  return bit_accurate ? "PositEmacRtl" : "PositEmacFast";
}

/// round(a*b + c) with one rounding: c loaded as the bias, one MAC cycle.
std::uint32_t fma(emac::Emac& u, std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  u.reset(c);
  u.step(a, b);
  return u.result();
}

TEST(Quire, Construction) {
  const PositFormat fmt{8, 1};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    const auto u = unit(fmt, 64, bit_accurate);
    EXPECT_EQ(dynamic_cast<const emac::PositEmacRtl*>(u.get()) != nullptr, bit_accurate);
    EXPECT_EQ(u->max_terms(), 64u);
    EXPECT_EQ(u->result(), 0u);
    EXPECT_THROW(unit(fmt, 0, bit_accurate), std::invalid_argument);
    EXPECT_THROW(unit(PositFormat{5, 3}, 4, bit_accurate), std::invalid_argument);
  }
  // max_scale = (8-2)*2^1 = 12, significand width P = 5.
  EXPECT_GE(emac::PositEmacRtl(fmt, 64).accumulator_width(), 4u * 12 + 2 * 5 + 2);
}

TEST(Quire, SingleProductIsCorrectlyRounded) {
  const PositFormat fmt{8, 0};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    const auto u = unit(fmt, 1, bit_accurate);
    std::mt19937 rng(1);
    for (int rep = 0; rep < 500; ++rep) {
      const std::uint32_t a = random_real(fmt, rng);
      const std::uint32_t b = random_real(fmt, rng);
      u->reset();
      u->step(a, b);
      EXPECT_EQ(u->result(), posit_mul(a, b, fmt)) << a << "*" << b;
    }
  }
}

TEST(Quire, AddPositIsExact) {
  const PositFormat fmt{8, 2};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    const auto u = unit(fmt, 1, bit_accurate);
    for (std::uint32_t bits = 0; bits < (1u << 8); ++bits) {
      if (bits == fmt.nar_pattern()) continue;
      u->reset(bits);
      EXPECT_EQ(u->result(), bits) << bits;
    }
  }
}

TEST(Quire, SubProductCancelsExactly) {
  // Posit rounding never takes a nonzero value to zero, so a zero result
  // means the quire cancelled exactly.
  const PositFormat fmt{8, 1};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    std::mt19937 rng(2);
    const auto u = unit(fmt, 64, bit_accurate);
    u->reset();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (int i = 0; i < 16; ++i) {
      pairs.emplace_back(random_real(fmt, rng), random_real(fmt, rng));
      u->step(pairs.back().first, pairs.back().second);
    }
    for (const auto& [a, b] : pairs) u->step(posit_neg(a, fmt), b);
    EXPECT_EQ(u->result(), 0u);
  }
}

TEST(Quire, PermutationInvariance) {
  // The defining property of exact accumulation: any ordering of the same
  // products yields the identical posit. (A rounding accumulator fails this
  // almost surely.)
  const PositFormat fmt{8, 1};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    std::mt19937 rng(3);
    const auto u = unit(fmt, 40, bit_accurate);
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<std::uint32_t> a, b;
      for (int i = 0; i < 40; ++i) {
        a.push_back(random_real(fmt, rng));
        b.push_back(random_real(fmt, rng));
      }
      u->reset();
      for (std::size_t i = 0; i < a.size(); ++i) u->step(a[i], b[i]);
      const std::uint32_t ref = u->result();
      std::vector<std::size_t> idx(a.size());
      std::iota(idx.begin(), idx.end(), 0);
      for (int shuffle = 0; shuffle < 5; ++shuffle) {
        std::shuffle(idx.begin(), idx.end(), rng);
        u->reset();
        for (const std::size_t i : idx) u->step(a[i], b[i]);
        ASSERT_EQ(u->result(), ref) << "order dependence at rep " << rep;
      }
    }
  }
}

TEST(Quire, MatchesDoubleOnExactSums) {
  // For 8-bit posits all products and modest sums are exact in double.
  const PositFormat fmt{8, 0};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    std::mt19937 rng(4);
    const auto u = unit(fmt, 32, bit_accurate);
    for (int rep = 0; rep < 200; ++rep) {
      u->reset();
      double sum = 0;
      for (int i = 0; i < 32; ++i) {
        const std::uint32_t a = random_real(fmt, rng);
        const std::uint32_t b = random_real(fmt, rng);
        u->step(a, b);
        sum += posit_to_double(a, fmt) * posit_to_double(b, fmt);
      }
      EXPECT_EQ(u->result(), posit_from_double(sum, fmt));
    }
  }
}

TEST(Quire, NaRPoisons) {
  const PositFormat fmt{8, 1};
  const std::uint32_t one = posit_from_double(1.0, fmt);
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    const auto u = unit(fmt, 4, bit_accurate);
    u->reset();
    u->step(one, fmt.nar_pattern());
    u->step(one, one);
    EXPECT_EQ(u->result(), fmt.nar_pattern());
    u->reset();
    EXPECT_EQ(u->result(), 0u);
  }
}

TEST(Quire, CapacityEnforced) {
  const PositFormat fmt{8, 1};
  const std::uint32_t one = posit_from_double(1.0, fmt);
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    const auto u = unit(fmt, 2, bit_accurate);
    u->reset();
    u->step(one, one);
    u->step(one, one);
    EXPECT_THROW(u->step(one, one), std::logic_error);
  }
}

// ---------------------------------------------------------------------------
// Fused multiply-add.
// ---------------------------------------------------------------------------

TEST(PositFma, SingleRoundingBeatsTwo) {
  const PositFormat fmt{8, 0};
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    std::mt19937 rng(5);
    const auto u = unit(fmt, 1, bit_accurate);
    int fused_differs = 0;
    for (int rep = 0; rep < 3000; ++rep) {
      const std::uint32_t a = random_real(fmt, rng);
      const std::uint32_t b = random_real(fmt, rng);
      const std::uint32_t c = random_real(fmt, rng);
      const std::uint32_t fused = fma(*u, a, b, c);
      // Reference: exact in double for 8-bit operands.
      const double exact = posit_to_double(a, fmt) * posit_to_double(b, fmt) +
                           posit_to_double(c, fmt);
      EXPECT_EQ(fused, posit_from_double(exact, fmt)) << a << " " << b << " " << c;
      const std::uint32_t two_step = posit_add(posit_mul(a, b, fmt), c, fmt);
      if (fused != two_step) ++fused_differs;
    }
    EXPECT_GT(fused_differs, 0) << "fma should differ from mul+add somewhere";
  }
}

TEST(PositFma, NaRAndZeroCases) {
  const PositFormat fmt{8, 1};
  const std::uint32_t one = posit_from_double(1.0, fmt);
  for (const bool bit_accurate : {false, true}) {
    SCOPED_TRACE(model_name(bit_accurate));
    const auto u = unit(fmt, 1, bit_accurate);
    EXPECT_EQ(fma(*u, fmt.nar_pattern(), one, one), fmt.nar_pattern());
    EXPECT_EQ(fma(*u, 0, one, one), one);
    EXPECT_EQ(fma(*u, one, one, 0), one);
  }
}

// ---------------------------------------------------------------------------
// Format conversion. For posits up to 32 bits num::convert rounds once: the
// source value is exact in double.
// ---------------------------------------------------------------------------

TEST(PositConvert, WideningIsExact) {
  const PositFormat small{8, 1};
  const PositFormat big{16, 1};
  for (std::uint32_t bits = 0; bits < (1u << 8); ++bits) {
    const std::uint32_t wide = convert(bits, Format{small}, Format{big});
    if (bits == small.nar_pattern()) {
      EXPECT_EQ(wide, big.nar_pattern());
      continue;
    }
    EXPECT_EQ(posit_to_double(wide, big), posit_to_double(bits, small)) << bits;
    // Round trip back is the identity.
    EXPECT_EQ(convert(wide, Format{big}, Format{small}), bits) << bits;
  }
}

TEST(PositConvert, NarrowingRoundsCorrectly) {
  const PositFormat big{12, 1};
  const PositFormat small{8, 1};
  for (std::uint32_t bits = 0; bits < (1u << 12); ++bits) {
    if (bits == big.nar_pattern()) continue;
    const std::uint32_t narrow = convert(bits, Format{big}, Format{small});
    EXPECT_EQ(narrow, posit_from_double(posit_to_double(bits, big), small)) << bits;
  }
}

TEST(PositConvert, AcrossEsValues) {
  const PositFormat es0{8, 0};
  const PositFormat es2{10, 2};
  for (std::uint32_t bits = 0; bits < (1u << 8); ++bits) {
    if (bits == es0.nar_pattern()) continue;
    const double v = posit_to_double(bits, es0);
    // posit<10,2> covers posit<8,0>'s range with at least as much precision
    // near 1; check correctly rounded conversion.
    EXPECT_EQ(convert(bits, Format{es0}, Format{es2}), posit_from_double(v, es2)) << bits;
  }
}

}  // namespace
}  // namespace dp::num
