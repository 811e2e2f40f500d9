// Unified metrics primitives for the serving and benchmark paths.
//
// PercentileTracker records raw samples and answers nearest-rank
// percentile queries; the sample streams here are request-scale
// (thousands to low millions), so keeping them resident is simpler and
// more faithful than a sketch. Queries sort lazily and cache the sorted
// state, so back-to-back p50/p95/p99 queries pay one sort, not three.
// Not thread-safe — owners lock.
//
// MetricsRegistry is the process/service-wide metrics store: named
// monotonic counters, gauges, and histograms (PercentileTracker-backed)
// behind one mutex, serialized to a single JSON schema:
//
//   {"schema_version": 1,
//    "counters":   {"serve.requests": 12, ...},
//    "gauges":     {"serve.hit_rate": 0.83, ...},
//    "histograms": {"serve.hit_us": {"count": ..., "mean": ...,
//                   "min": ..., "max": ..., "p50": ..., "p95": ...,
//                   "p99": ...}, ...}}
//
// Keys are emitted in sorted order so dumps diff cleanly. This is the
// artifact `sherlockc --serve --metrics-out` writes and the serve
// protocol's STATS verb returns; scripts/check_trace.py validates it
// in CI.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sherlock {

class PercentileTracker {
 public:
  void record(double value) {
    samples_.push_back(value);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (double s : samples_) sum += s;
    return sum / static_cast<double>(samples_.size());
  }

  /// Nearest-rank percentile; q in [0, 100]. Returns 0 with no samples.
  double percentile(double q) const {
    if (samples_.empty()) return 0.0;
    ensureSorted();
    double rank = q / 100.0 * static_cast<double>(samples_.size() - 1);
    size_t idx = static_cast<size_t>(rank + 0.5);
    if (idx >= samples_.size()) idx = samples_.size() - 1;
    return samples_[idx];
  }

  double min() const { return percentile(0); }
  double max() const { return percentile(100); }

  void clear() {
    samples_.clear();
    sorted_ = true;
  }

 private:
  void ensureSorted() const {
    if (sorted_) return;
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }

  /// Sample arrival order is never observable, so queries sort the
  /// resident vector in place and cache that state until the next
  /// record() invalidates it.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

class MetricsRegistry {
 public:
  /// Histogram summary as exported in the JSON schema.
  struct HistogramSnapshot {
    size_t count = 0;
    double mean = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
  };

  /// Adds `delta` to a monotonic counter (created at 0 on first use).
  void add(const std::string& name, uint64_t delta = 1);

  /// Sets a gauge to `value` (last write wins).
  void setGauge(const std::string& name, double value);

  /// Records one histogram sample.
  void observe(const std::string& name, double value);

  uint64_t counterValue(const std::string& name) const;
  double gaugeValue(const std::string& name) const;
  HistogramSnapshot histogram(const std::string& name) const;

  /// The unified JSON schema documented above.
  std::string toJson() const;

  void clear();

  /// The process-wide shared registry.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, PercentileTracker> histograms_;
};

}  // namespace sherlock
