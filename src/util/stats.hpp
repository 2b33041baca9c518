#pragma once
/// \file stats.hpp
/// Lightweight descriptive statistics used by the experiment harness.

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace locmps {

/// Total order on doubles for sorting: like operator< but NaNs sort last
/// (deterministically), so a stray NaN cannot break std::sort's strict
/// weak ordering requirement and scramble everything after it. Use this as
/// the comparator whenever sorting float keys (locmps-lint: float-sort).
inline bool total_less(double a, double b) {
  if (std::isnan(a)) return false;
  if (std::isnan(b)) return true;
  return a < b;
}

/// Summary of a sample: count, mean, stddev, min/max and geometric mean.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double geomean = 0.0;  ///< geometric mean; 0 if any sample <= 0
};

/// Computes a Summary over \p xs. An empty span yields a zero Summary.
Summary summarize(std::span<const double> xs);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// \p q-quantile (0 <= q <= 1) by linear interpolation on the sorted copy.
double quantile(std::span<const double> xs, double q);

/// Median (the 0.5-quantile); 0 for an empty span.
double median(std::span<const double> xs);

/// Distribution-free confidence interval for the median.
struct MedianCI {
  double median = 0.0;
  double lo = 0.0;  ///< lower order-statistic bound
  double hi = 0.0;  ///< upper order-statistic bound
  /// Achieved coverage of [lo, hi] (>= the requested level when the sample
  /// is large enough; the widest achievable min/max interval otherwise).
  double coverage = 0.0;
};

/// Order-statistic (binomial, distribution-free) confidence interval for
/// the median at the requested \p confidence level: the symmetric interval
/// [x_(k), x_(n+1-k)] with the smallest k whose exact binomial coverage
/// P(k <= B < n+1-k), B ~ Binomial(n, 1/2), reaches \p confidence. For
/// samples too small to reach the level, returns [min, max] with its
/// achieved coverage. An empty span yields a zero MedianCI.
MedianCI median_ci(std::span<const double> xs, double confidence = 0.95);

}  // namespace locmps
