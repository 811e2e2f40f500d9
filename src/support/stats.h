// Small statistics helpers used by the benchmark harnesses and the
// reliability model.
#pragma once

#include <vector>

namespace sherlock {

/// Arithmetic mean. Returns 0 for an empty range.
double mean(const std::vector<double>& xs);

/// Geometric mean. All inputs must be strictly positive (throws Error
/// otherwise); returns 0 for empty input.
double geomean(const std::vector<double>& xs);

/// Geometric mean that tolerates zero and negative inputs by flooring
/// every element at `floor` (default 1e-12) before taking logs. Intended
/// for benchmark summary rows over measured ratios, where a degenerate
/// configuration (zero stall time, pApp == 0) would otherwise abort the
/// whole table; the floor biases such entries toward zero instead of
/// throwing. Returns 0 for empty input. `floor` must be positive.
double geomeanSafe(const std::vector<double>& xs, double floor = 1e-12);

/// Linear-interpolated quantile, q in [0, 1]. Input need not be sorted.
double quantile(std::vector<double> xs, double q);

/// Upper tail of the standard normal distribution, Q(x) = 1 - Phi(x).
/// Numerically accurate far into the tail (uses erfc).
double normalTail(double x);

}  // namespace sherlock
