// Edge-case pinning for the one nearest-rank percentile definition shared by
// serve::BatcherStats and every bench JSON. The p99.9 cases on small N
// matter most: perfbench reports p99.9 over windows that can be tiny right
// after startup, and nearest-rank must degrade to "the max" — never read out
// of bounds, never interpolate.

#include "core/percentile.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dp::core {
namespace {

TEST(Percentile, EmptySampleIsZeroForEveryP) {
  const std::vector<double> none;
  EXPECT_EQ(percentile(none, 50), 0.0);
  EXPECT_EQ(percentile(none, 99), 0.0);
  EXPECT_EQ(percentile(none, 99.9), 0.0);
  EXPECT_EQ(percentile(none, 100), 0.0);
}

TEST(Percentile, OneSampleIsThatSampleForEveryP) {
  const std::vector<double> one = {7.5};
  EXPECT_EQ(percentile(one, 0.1), 7.5);
  EXPECT_EQ(percentile(one, 50), 7.5);
  EXPECT_EQ(percentile(one, 99), 7.5);
  EXPECT_EQ(percentile(one, 99.9), 7.5);
  EXPECT_EQ(percentile(one, 100), 7.5);
}

TEST(Percentile, TwoSamplesSplitAtTheMedianRank) {
  const std::vector<double> two = {1.0, 2.0};
  // Nearest-rank: rank = ceil(p/100 * 2); p <= 50 selects the first sample,
  // anything above selects the second.
  EXPECT_EQ(percentile(two, 25), 1.0);
  EXPECT_EQ(percentile(two, 50), 1.0);
  EXPECT_EQ(percentile(two, 50.1), 2.0);
  EXPECT_EQ(percentile(two, 99), 2.0);
  EXPECT_EQ(percentile(two, 99.9), 2.0);
  EXPECT_EQ(percentile(two, 100), 2.0);
}

TEST(Percentile, P999OnSmallSamplesIsTheMaxNotOutOfBounds) {
  // Until the sample has >= 1000 points, ceil(0.999 * n) == n, so p99.9 is
  // simply the largest observation.
  for (std::size_t n = 1; n <= 32; ++n) {
    std::vector<double> sorted;
    for (std::size_t i = 0; i < n; ++i) sorted.push_back(static_cast<double>(i));
    EXPECT_EQ(percentile(sorted, 99.9), static_cast<double>(n - 1)) << "n=" << n;
  }
}

TEST(Percentile, P999SeparatesFromP99OnlyPastATenthOfAPercentTail) {
  // 1000 points 1..1000: p99 -> rank 990, p99.9 -> rank 999, p100 -> 1000.
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT_EQ(percentile(sorted, 99), 990.0);
  EXPECT_EQ(percentile(sorted, 99.9), 999.0);
  EXPECT_EQ(percentile(sorted, 100), 1000.0);
}

TEST(Percentile, NearestRankNeverInterpolates) {
  // Every returned value must be an element of the sample.
  const std::vector<double> sorted = {0.25, 1.5, 2.0, 10.0, 100.0};
  for (const double p : {1.0, 20.0, 40.0, 50.0, 60.0, 80.0, 99.0, 99.9, 100.0}) {
    const double v = percentile(sorted, p);
    bool member = false;
    for (const double s : sorted) member = member || (s == v);
    EXPECT_TRUE(member) << "p=" << p << " returned non-member " << v;
  }
}

TEST(Percentile, MedianOfOddSampleIsTheMiddleElement) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5};
  EXPECT_EQ(percentile(sorted, 50), 3.0);
}

}  // namespace
}  // namespace dp::core
