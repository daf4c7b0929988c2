// EMAC verification: every unit is checked bit-for-bit against the
// independent exact-arithmetic oracle across the paper's full format grid,
// including adversarial vectors (saturating magnitudes, heavy cancellation,
// long accumulations).

#include "emac/emac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "emac/fixed_emac.hpp"
#include "emac/float_emac.hpp"
#include "emac/naive_mac.hpp"
#include "emac/posit_emac.hpp"
#include "emac_oracle.hpp"

namespace dp::emac {
namespace {

using testing::oracle_mac;

/// Random pattern in the format, avoiding posit NaR and float Inf/NaN.
std::uint32_t random_operand(const num::Format& fmt, std::mt19937& rng) {
  for (;;) {
    const std::uint32_t bits = rng() & ((fmt.total_bits() >= 32)
                                            ? ~std::uint32_t{0}
                                            : ((1u << fmt.total_bits()) - 1));
    const double v = fmt.to_double(bits);
    if (std::isfinite(v)) return bits;
  }
}

std::uint32_t run_emac(Emac& e, std::uint32_t bias, std::span<const std::uint32_t> w,
                       std::span<const std::uint32_t> a) {
  e.reset(bias);
  for (std::size_t i = 0; i < w.size(); ++i) e.step(w[i], a[i]);
  return e.result();
}

std::vector<num::Format> all_formats() {
  std::vector<num::Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const auto& f : num::paper_format_grid(n)) out.push_back(f);
  }
  // A couple of wider configurations beyond the paper's sweep.
  out.push_back(num::PositFormat{16, 1});
  out.push_back(num::FloatFormat{5, 10});
  out.push_back(num::FixedFormat{16, 8});
  return out;
}

class EmacOracleTest : public ::testing::TestWithParam<num::Format> {};

TEST_P(EmacOracleTest, RandomVectorsMatchOracle) {
  const num::Format fmt = GetParam();
  std::mt19937 rng(0x5EED0 + fmt.total_bits());
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{32},
                              std::size_t{100}}) {
    const auto emac = make_emac(fmt, k);
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<std::uint32_t> w(k), a(k);
      for (auto& x : w) x = random_operand(fmt, rng);
      for (auto& x : a) x = random_operand(fmt, rng);
      const std::uint32_t bias = random_operand(fmt, rng);
      const std::uint32_t got = run_emac(*emac, bias, w, a);
      const std::uint32_t want = oracle_mac(fmt, bias, w, a);
      ASSERT_EQ(got, want) << fmt.name() << " k=" << k << " rep=" << rep
                           << " got=" << fmt.to_double(got)
                           << " want=" << fmt.to_double(want);
    }
  }
}

TEST_P(EmacOracleTest, AdversarialCancellation) {
  const num::Format fmt = GetParam();
  const std::size_t k = 64;
  const auto emac = make_emac(fmt, k);
  std::mt19937 rng(99);
  // Pairs (w, a) and (-w, a): exact sum must cancel to the bias.
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<std::uint32_t> w, a;
    for (std::size_t i = 0; i < k / 2; ++i) {
      const std::uint32_t wi = random_operand(fmt, rng);
      const std::uint32_t ai = random_operand(fmt, rng);
      std::uint32_t neg_wi;
      switch (fmt.kind()) {
        case num::Kind::kPosit:
          neg_wi = num::posit_neg(wi, fmt.posit());
          break;
        case num::Kind::kFloat:
          neg_wi = num::float_neg(wi, fmt.flt());
          break;
        case num::Kind::kFixed:
          // Avoid raw_min, whose negation saturates inexactly.
          neg_wi = num::fixed_raw(wi, fmt.fixed()) == fmt.fixed().raw_min()
                       ? num::fixed_from_raw(0, fmt.fixed())
                       : num::fixed_neg(wi, fmt.fixed());
          break;
        default:
          FAIL();
      }
      if (fmt.kind() == num::Kind::kFixed &&
          num::fixed_raw(wi, fmt.fixed()) == fmt.fixed().raw_min()) {
        // Replace the pair with zeros to keep exact cancellation.
        w.push_back(0);
        w.push_back(0);
        a.push_back(ai);
        a.push_back(ai);
        continue;
      }
      w.push_back(wi);
      w.push_back(neg_wi);
      a.push_back(ai);
      a.push_back(ai);
    }
    const std::uint32_t bias = random_operand(fmt, rng);
    const std::uint32_t got = run_emac(*emac, bias, w, a);
    const std::uint32_t want = oracle_mac(fmt, bias, w, a);
    ASSERT_EQ(got, want) << fmt.name();
    // The exact sum is precisely the bias value.
    EXPECT_EQ(fmt.to_double(got), fmt.to_double(oracle_mac(fmt, bias, {}, {})))
        << fmt.name();
  }
}

TEST_P(EmacOracleTest, SaturatingAccumulation) {
  const num::Format fmt = GetParam();
  const std::size_t k = 32;
  const auto emac = make_emac(fmt, k);
  // All-max products: sum overflows the output range; result must clip at
  // max (fixed/float) or saturate at maxpos (posit), never wrap or go Inf.
  const std::uint32_t maxbits = fmt.from_double(fmt.max_value());
  std::vector<std::uint32_t> w(k, maxbits), a(k, maxbits);
  const std::uint32_t got = run_emac(*emac, 0, w, a);
  EXPECT_EQ(got, oracle_mac(fmt, 0, w, a)) << fmt.name();
  EXPECT_EQ(fmt.to_double(got), fmt.max_value()) << fmt.name();
}

TEST_P(EmacOracleTest, BiasAloneIsIdentity) {
  const num::Format fmt = GetParam();
  const auto emac = make_emac(fmt, 4);
  const std::uint32_t msk =
      fmt.total_bits() >= 32 ? ~std::uint32_t{0} : ((1u << fmt.total_bits()) - 1);
  for (std::uint32_t bias = 0; bias <= msk && bias < 1u << 16; ++bias) {
    const double v = fmt.to_double(bias);
    if (!std::isfinite(v)) continue;
    emac->reset(bias);
    const double got = fmt.to_double(emac->result());
    EXPECT_EQ(got, v) << fmt.name() << " bias=" << bias;
  }
}

TEST_P(EmacOracleTest, StepBeyondKThrows) {
  const num::Format fmt = GetParam();
  const auto emac = make_emac(fmt, 2);
  emac->reset();
  const std::uint32_t one = fmt.from_double(1.0);
  emac->step(one, one);
  emac->step(one, one);
  EXPECT_THROW(emac->step(one, one), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Grid, EmacOracleTest, ::testing::ValuesIn(all_formats()),
                         [](const auto& info) {
                           std::string s = info.param.name();
                           for (char& c : s) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return s + "_" + std::to_string(info.index);
                         });

// ---------------------------------------------------------------------------
// Exactness premise: the EMAC differs from (and improves on) a naive MAC.
// ---------------------------------------------------------------------------

TEST(EmacVsNaive, DelayedRoundingAvoidsSwamping) {
  // Accumulating many tiny products: the naive MAC loses them to rounding
  // once the accumulator grows ("swamping"); the EMAC keeps every bit until
  // the single final rounding.
  const num::Format fmt = num::PositFormat{8, 0};
  const std::size_t k = 64;
  const auto emac = make_emac(fmt, k);
  const std::uint32_t big = fmt.from_double(8.0);
  const std::uint32_t tiny = fmt.from_double(1.0 / 16.0);
  const std::uint32_t one = fmt.from_double(1.0);
  std::vector<std::uint32_t> w{big};
  std::vector<std::uint32_t> a{one};
  for (std::size_t i = 1; i < k; ++i) {
    w.push_back(tiny);
    a.push_back(one);
  }
  const double exact = 8.0 + static_cast<double>(k - 1) / 16.0;  // 11.9375
  const std::uint32_t emac_r = run_emac(*emac, 0, w, a);
  const std::uint32_t naive_r = naive_mac(fmt, 0, w, a);
  const double emac_v = fmt.to_double(emac_r);
  const double naive_v = fmt.to_double(naive_r);
  EXPECT_LT(std::fabs(emac_v - exact), std::fabs(naive_v - exact))
      << "EMAC=" << emac_v << " naive=" << naive_v << " exact=" << exact;
  EXPECT_EQ(emac_r, oracle_mac(fmt, 0, w, a));
}

TEST(EmacVsNaive, AgreeOnSinglePositProduct) {
  // With a single product there is only one rounding either way, so the
  // exact and naive paths coincide bit-for-bit (posit has no Inf or -0).
  const num::Format fmt = num::PositFormat{8, 1};
  std::mt19937 rng(17);
  const auto emac = make_emac(fmt, 1);
  for (int rep = 0; rep < 500; ++rep) {
    const std::uint32_t w = random_operand(fmt, rng);
    const std::uint32_t a = random_operand(fmt, rng);
    const std::vector<std::uint32_t> ws{w}, as{a};
    EXPECT_EQ(run_emac(*emac, 0, ws, as), naive_mac(fmt, 0, ws, as)) << fmt.name();
  }
}

TEST(EmacVsNaive, FloatDivergesOnlyAtIeeeEdgeCases) {
  // For floats the naive (IEEE) path overflows to Inf where the EMAC clips
  // at max magnitude, and signed zeros may differ (the EMAC sees the exact
  // sign of the tiny sum; the naive path rounds the product to -0 first and
  // then +0 + -0 = +0). Everywhere else, single products agree exactly.
  const num::Format fmt = num::FloatFormat{4, 3};
  std::mt19937 rng(17);
  const auto emac = make_emac(fmt, 1);
  int plain = 0, overflowed = 0, zeroed = 0;
  for (int rep = 0; rep < 1000; ++rep) {
    const std::uint32_t w = random_operand(fmt, rng);
    const std::uint32_t a = random_operand(fmt, rng);
    const std::vector<std::uint32_t> ws{w}, as{a};
    const std::uint32_t ev = run_emac(*emac, 0, ws, as);
    const std::uint32_t nv = naive_mac(fmt, 0, ws, as);
    const double ed = fmt.to_double(ev);
    const double nd = fmt.to_double(nv);
    if (std::isinf(nd)) {
      EXPECT_EQ(std::fabs(ed), fmt.max_value()) << "EMAC must clip, not overflow";
      EXPECT_EQ(std::signbit(ed), std::signbit(nd));
      ++overflowed;
    } else if (ed == 0.0 && nd == 0.0) {
      ++zeroed;  // sign of zero may legitimately differ
    } else {
      EXPECT_EQ(ev, nv) << fmt.name();
      ++plain;
    }
  }
  EXPECT_GT(plain, 500);
}

// ---------------------------------------------------------------------------
// Width formulas.
// ---------------------------------------------------------------------------

TEST(EmacWidths, Equation3) {
  // Fixed n=8, q=4: max/min = 127, ceil(log2) = 7 -> wa = log2k + 16.
  EXPECT_EQ(accumulator_width_eq3(127.0 / 16, 1.0 / 16, 256), 8u + 14u + 2u);
  // k=1: ceil(log2 1) = 0.
  EXPECT_EQ(accumulator_width_eq3(127.0 / 16, 1.0 / 16, 1), 16u);
}

TEST(EmacWidths, Equation4) {
  // Paper eq. (4): qsize = 2^(es+2)*(n-2) + 2 + ceil(log2 k).
  EXPECT_EQ(quire_width_eq4(num::PositFormat{8, 0}, 1), 26u);
  EXPECT_EQ(quire_width_eq4(num::PositFormat{8, 0}, 256), 34u);
  EXPECT_EQ(quire_width_eq4(num::PositFormat{8, 2}, 128), 16u * 6 + 2 + 7);
  EXPECT_EQ(quire_width_eq4(num::PositFormat{16, 1}, 64), 8u * 14 + 2 + 6);
}

TEST(EmacWidths, ReportedByUnits) {
  EXPECT_EQ(make_emac(num::PositFormat{8, 0}, 256)->accumulator_width(), 34u);
  EXPECT_EQ(make_emac(num::FixedFormat{8, 4}, 256)->accumulator_width(), 24u);
  EXPECT_GT(make_emac(num::FloatFormat{4, 3}, 256)->accumulator_width(), 30u);
}

// ---------------------------------------------------------------------------
// Unit replication.
// ---------------------------------------------------------------------------

TEST(EmacUnits, CloneIsIndependent) {
  const num::Format fmt{num::PositFormat{8, 1}};
  const auto original = make_emac(fmt, 16);
  original->reset(fmt.from_double(1.0));
  original->step(fmt.from_double(0.5), fmt.from_double(0.5));
  const auto copy = original->clone();  // config only, empty accumulator
  EXPECT_EQ(copy->max_terms(), original->max_terms());
  EXPECT_EQ(copy->accumulator_width(), original->accumulator_width());
  copy->reset(fmt.from_double(2.0));
  copy->step(fmt.from_double(1.0), fmt.from_double(1.0));
  EXPECT_EQ(fmt.to_double(copy->result()), 3.0);
  EXPECT_EQ(fmt.to_double(original->result()), 1.25);  // untouched by the clone
}

}  // namespace
}  // namespace dp::emac
