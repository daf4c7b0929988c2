// num::EncodeTable against the generic encoder (Format::from_double), its
// oracle, on every paper-grid format of 5..8 bits: at every rounding
// boundary and one ulp either side, on the specials, and on seeded random
// doubles spread log-uniformly over the binades.

#include "numeric/encode_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace dp::num {
namespace {

std::vector<Format> paper_grid_5_to_8() {
  std::vector<Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const Format& f : paper_format_grid(n)) out.push_back(f);
  }
  return out;
}

/// Doubles as int64s that order like their values (±0 both map to 0), so
/// "one ulp up" is +1 and bisection works across the whole line.
std::int64_t ordered(double x) {
  const auto i = std::bit_cast<std::int64_t>(x);
  return i >= 0 ? i : std::numeric_limits<std::int64_t>::min() - i;
}
double from_ordered(std::int64_t o) {
  return std::bit_cast<double>(o >= 0 ? o : std::numeric_limits<std::int64_t>::min() - o);
}

/// Every rounding boundary of the generic encoder: for each pair of
/// neighbouring finite values v < w, the least double that encodes like w.
std::vector<double> rounding_boundaries(const Format& fmt) {
  std::vector<double> values;
  for (std::uint32_t p = 0; p < (std::uint32_t{1} << fmt.total_bits()); ++p) {
    const double v = fmt.to_double(p);
    if (std::isfinite(v)) values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    const std::uint32_t far = fmt.from_double(values[i + 1]);
    std::int64_t lo = ordered(values[i]);
    std::int64_t hi = ordered(values[i + 1]);
    EXPECT_NE(fmt.from_double(values[i]), far) << fmt.name() << " " << values[i];
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      (fmt.from_double(from_ordered(mid)) == far ? hi : lo) = mid;
    }
    out.push_back(from_ordered(hi));
  }
  return out;
}

/// Counts x where the table disagrees with the generic encoder, one failure
/// message per format at most.
class Checker {
 public:
  explicit Checker(const Format& fmt) : fmt_(fmt), table_(fmt) {}

  void check(double x) {
    ++checked_;
    const std::uint32_t want = fmt_.from_double(x);
    const std::uint32_t got = table_.encode(x);
    if (got == want) return;
    if (mismatches_++ == 0) {
      ADD_FAILURE() << fmt_.name() << ": encode(" << x << " = 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(x) << ") = 0x" << got << ", want 0x"
                    << want;
    }
  }
  std::size_t mismatches() const { return mismatches_; }
  std::size_t checked() const { return checked_; }
  const EncodeTable& table() const { return table_; }

 private:
  Format fmt_;
  EncodeTable table_;
  std::size_t mismatches_ = 0;
  std::size_t checked_ = 0;
};

class EncodeTableGrid : public ::testing::TestWithParam<Format> {};

TEST_P(EncodeTableGrid, MatchesGenericEncoderAtEveryBoundary) {
  Checker c(GetParam());
  const std::vector<double> bounds = rounding_boundaries(GetParam());
  // At least one boundary between each pair of neighbouring values.
  ASSERT_GE(bounds.size(), (std::size_t{1} << GetParam().total_bits()) / 2);
  for (const double t : bounds) {
    const std::int64_t o = ordered(t);
    for (const std::int64_t d : {-1, 0, 1}) c.check(from_ordered(o + d));
  }
  EXPECT_EQ(c.mismatches(), 0u) << GetParam().name() << " over " << c.checked() << " doubles";
}

TEST_P(EncodeTableGrid, MatchesGenericEncoderOnSpecials) {
  const Format& fmt = GetParam();
  Checker c(fmt);
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double x : {0.0, -0.0, inf, -inf, DBL_MAX, -DBL_MAX, tiny, -tiny,
                         fmt.min_positive() / 2, -fmt.min_positive() / 2}) {
    c.check(x);
  }
  EXPECT_EQ(c.mismatches(), 0u);
  // Float -0 keeps its sign bit; the posit and fixed zero is one pattern.
  EXPECT_EQ(c.table().encode(-0.0), fmt.from_double(-0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (fmt.kind() == Kind::kFixed) {
    EXPECT_THROW(fmt.from_double(nan), std::domain_error);
    EXPECT_THROW(c.table().encode(nan), std::domain_error);
    EXPECT_THROW(c.table().encode(-nan), std::domain_error);
  } else {
    EXPECT_EQ(c.table().encode(nan), fmt.from_double(nan));
    EXPECT_EQ(c.table().encode(-nan), fmt.from_double(-nan));
  }
}

TEST_P(EncodeTableGrid, MatchesGenericEncoderOnLogUniformRandomDoubles) {
  const Format& fmt = GetParam();
  Checker c(fmt);
  // Binades from well below the smallest value to well above the largest.
  const int lo = std::ilogb(fmt.min_positive()) - 8;
  const int hi = std::ilogb(fmt.max_value()) + 8;
  std::mt19937_64 rng(20190325);
  std::uniform_int_distribution<int> binade(lo, hi);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t r = rng();
    // A random 52-bit mantissa in [1, 2), scaled into a random binade.
    const double m = std::bit_cast<double>((r >> 12) | 0x3FF0'0000'0000'0000);
    const double x = std::ldexp(m, binade(rng));
    c.check((r & 1) != 0 ? -x : x);
  }
  EXPECT_EQ(c.mismatches(), 0u) << fmt.name();
}

TEST_P(EncodeTableGrid, KeyNeedsAtMostSixMantissaBits) {
  const EncodeTable table(GetParam());
  // At n <= 8 the densest binade (fixed point's top one) holds 64
  // boundaries, so m <= 6 and the table stays under 32 KiB.
  EXPECT_LE(table.mantissa_bits(), 6);
  EXPECT_LE(table.bucket_count(), 2048u);
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, EncodeTableGrid, ::testing::ValuesIn(paper_grid_5_to_8()),
                         [](const auto& info) {
                           std::string name;
                           for (const char ch : info.param.name()) {
                             if (std::isalnum(static_cast<unsigned char>(ch)) != 0) {
                               name += ch;
                             } else if (!name.empty() && name.back() != '_') {
                               name += '_';
                             }
                           }
                           if (!name.empty() && name.back() == '_') name.pop_back();
                           return name;
                         });

TEST(EncodeTable, SharedTableIsBuiltOncePerFormat) {
  const Format fmt = PositFormat{8, 1};
  const auto a = shared_encode_table(fmt);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, shared_encode_table(PositFormat{8, 1}));
  EXPECT_NE(a, shared_encode_table(PositFormat{8, 2}));
  EXPECT_EQ(a->format(), fmt);
}

TEST(EncodeTable, WiderThanEightBitsHasNoTable) {
  for (const Format& fmt : {Format(PositFormat{9, 0}), Format(PositFormat{16, 1}),
                            Format(FloatFormat{4, 4}), Format(FixedFormat{12, 6})}) {
    EXPECT_EQ(shared_encode_table(fmt), nullptr) << fmt.name();
    EXPECT_THROW(EncodeTable{fmt}, std::invalid_argument) << fmt.name();
  }
}

}  // namespace
}  // namespace dp::num
