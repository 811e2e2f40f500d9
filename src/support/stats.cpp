#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"

namespace sherlock {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) {
    checkArg(x > 0.0, "geomean requires positive inputs");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

double geomeanSafe(const std::vector<double>& xs, double floor) {
  checkArg(floor > 0.0, "geomeanSafe floor must be positive");
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += std::log(std::max(x, floor));
  return std::exp(s / static_cast<double>(xs.size()));
}

double quantile(std::vector<double> xs, double q) {
  checkArg(!xs.empty(), "quantile of empty range");
  checkArg(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1]");
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double normalTail(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

}  // namespace sherlock
