#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace locmps {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  double sum = 0.0, logsum = 0.0;
  bool geo_ok = true;
  s.min = xs[0];
  s.max = xs[0];
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    if (x > 0)
      logsum += std::log(x);
    else
      geo_ok = false;
  }
  s.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1
                 ? std::sqrt(ss / static_cast<double>(xs.size() - 1))
                 : 0.0;
  s.geomean =
      geo_ok ? std::exp(logsum / static_cast<double>(xs.size())) : 0.0;
  return s;
}

double mean(std::span<const double> xs) { return summarize(xs).mean; }


double median(std::span<const double> xs) { return quantile(xs, 0.5); }

MedianCI median_ci(std::span<const double> xs, double confidence) {
  MedianCI ci;
  if (xs.empty()) return ci;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end(), total_less);
  const std::size_t n = v.size();
  ci.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);

  // Binomial(n, 1/2) pmf, computed by recurrence to avoid overflow.
  std::vector<double> pmf(n + 1);
  pmf[0] = std::pow(0.5, static_cast<double>(n));
  for (std::size_t k = 1; k <= n; ++k)
    pmf[k] = pmf[k - 1] * static_cast<double>(n - k + 1) /
             static_cast<double>(k);
  // Coverage of [x_(k), x_(n+1-k)] (1-based) is P(k <= B <= n-k); find the
  // smallest symmetric trim that still covers the requested level.
  std::size_t best_k = 1;
  double best_cov = 0.0;
  for (std::size_t k = 1; 2 * k <= n + 1; ++k) {
    double cov = 0.0;
    for (std::size_t b = k; b + k <= n; ++b) cov += pmf[b];
    if (k == 1) best_cov = cov;
    if (cov >= confidence) {
      best_k = k;
      best_cov = cov;
    } else {
      break;  // coverage only shrinks as k grows
    }
  }
  ci.lo = v[best_k - 1];
  ci.hi = v[n - best_k];
  ci.coverage = best_cov;
  return ci;
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end(), total_less);
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace locmps
