#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace locmps {
namespace {

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, SingleElement) {
  const std::vector<double> xs{4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.geomean, 4.0);
}

TEST(Stats, KnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.13809, 1e-4);  // sample stddev (n-1)
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, GeomeanOfPowers) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(summarize(xs).geomean, 4.0, 1e-12);
}

TEST(Stats, GeomeanZeroWhenNonPositive) {
  const std::vector<double> xs{1.0, 0.0, 2.0};
  EXPECT_EQ(summarize(xs).geomean, 0.0);
}

TEST(Stats, MeanMatchesSummarize) {
  const std::vector<double> xs{1.5, 2.5, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), (1.5 + 2.5 + 3.0) / 3.0);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, QuantileClampsOutOfRange) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 2.0);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MedianCiEmptyAndSingleton) {
  const MedianCI none = median_ci({});
  EXPECT_EQ(none.median, 0.0);
  EXPECT_EQ(none.coverage, 0.0);
  const std::vector<double> one{5.0};
  const MedianCI ci = median_ci(one);
  EXPECT_DOUBLE_EQ(ci.median, 5.0);
  EXPECT_DOUBLE_EQ(ci.lo, 5.0);
  EXPECT_DOUBLE_EQ(ci.hi, 5.0);
}

TEST(Stats, MedianCiSmallSampleFallsBackToMinMax) {
  // n=5: even the widest interval [x_(1), x_(5)] covers only
  // 1 - 2 * (1/2)^5 = 93.75% < 95%.
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const MedianCI ci = median_ci(xs, 0.95);
  EXPECT_DOUBLE_EQ(ci.lo, 1.0);
  EXPECT_DOUBLE_EQ(ci.hi, 5.0);
  EXPECT_NEAR(ci.coverage, 0.9375, 1e-12);
}

TEST(Stats, MedianCiKnownOrderStatistics) {
  // n=10 at 95%: the smallest symmetric k is 2, i.e. [x_(2), x_(9)],
  // with exact coverage 1 - 2*P(B<=1) = 1 - 2*11/1024 = 1002/1024.
  std::vector<double> xs;
  for (int i = 10; i >= 1; --i) xs.push_back(static_cast<double>(i));
  const MedianCI ci = median_ci(xs, 0.95);
  EXPECT_DOUBLE_EQ(ci.median, 5.5);
  EXPECT_DOUBLE_EQ(ci.lo, 2.0);
  EXPECT_DOUBLE_EQ(ci.hi, 9.0);
  EXPECT_NEAR(ci.coverage, 1002.0 / 1024.0, 1e-12);
  EXPECT_GE(ci.coverage, 0.95);
  EXPECT_LE(ci.lo, ci.median);
  EXPECT_GE(ci.hi, ci.median);
}

}  // namespace
}  // namespace locmps
