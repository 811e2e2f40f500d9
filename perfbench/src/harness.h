// Shared pieces of the end-to-end benchmark: command-line arguments, the
// per-layer call timer, the result report, and the statistics helpers.
//
// Every call the harness makes into a toolchain layer goes through a
// LayerCall. It always measures the call with steady_clock (the
// untraced end-to-end metrics are sums of these, scaled to nominal host
// speed), and while the tracer
// is enabled it also records a span in the "bench.<layer>" category, so
// the traced run can attribute self time per layer without relying on
// the spans the toolchain emits internally.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  /// Checkout root: the serve-mix corpus reads examples/kernels/*.sk.
  std::string root = ".";
  /// Chrome trace written by the traced run (empty = not written).
  std::string traceOut;
};

/// Times one call into a toolchain layer and adds the elapsed
/// milliseconds to `*sinkMs` (may be null). `category` must be a string
/// literal of the form "bench.<layer>".
class LayerCall {
 public:
  LayerCall(const char* category, const char* name, double* sinkMs)
      : span_(category, name), sink_(sinkMs), start_(Clock::now()) {}
  ~LayerCall() {
    if (sink_) *sink_ += msSince(start_);
  }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  sherlock::trace::Span span_;
  double* sink_;
  Clock::time_point start_;
};

/// Collects metrics, the determinism record and failure counts, and
/// renders them as the one-line JSON result perfbench/run.py consumes.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A value that must repeat exactly for the same seed and build
  /// (modeled numbers, counts, asm digests). run.py compares it across
  /// runs and counts drift as a failure.
  void record(const std::string& key, const std::string& value);
  void record(const std::string& key, double value);
  /// A metric that is also part of the determinism record.
  void exact(const std::string& name, double value, const std::string& unit) {
    metric(name, value, unit);
    record(name, value);
  }
  void attempt(long n = 1) { attempted_ += n; }
  /// Counts one failed operation and explains it on stderr.
  void fail(const std::string& why);
  long failed() const { return failed_; }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> record_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Host-speed normalization. The benchmark shares its host with other
/// machines, and the same pass of the same binary runs anywhere from 1x
/// to 1.7x its fastest time, in spells that last from seconds to minutes,
/// so the raw time of a 30-second run says more about the neighbours than
/// about the toolchain. The probe is a fixed piece of compiler-like work
/// owned by the benchmark (it builds a 60,000-node random DAG out of
/// vectors, orders it topologically and hash-conses its nodes); its time
/// tracks the toolchain's through those spells, and no change to the
/// toolchain can move it. Every host time measured on one thread (set-up,
/// the batch passes, serve-mix's replays) is scaled by kProbeNominalMs
/// over the probe time measured around it: seconds on a host where the
/// probe takes kProbeNominalMs (the typical probe time on the 2.1 GHz
/// Xeon VM the bounds were set on).
inline constexpr double kProbeNominalMs = 25.0;

/// Runs the probe `reps` times and returns the median time in ms.
double probeMs(int reps = 1);

/// The factor that scales a time measured between probes that took
/// `beforeMs` and `afterMs` to nominal host speed.
inline double speedScale(double beforeMs, double afterMs) {
  return kProbeNominalMs / std::sqrt(beforeMs * afterMs);
}

/// Runs `setUp` kSetupReps times, with the probe between repetitions, and
/// returns the median repetition in seconds at nominal host speed.
double setupSeconds(const std::function<void()>& setUp);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> values, double q);
/// Geometric mean of the positive entries (0 when there are none).
double geomean(const std::vector<double>& values);
/// 64-bit FNV-1a, rendered as 16 hex digits.
std::string digest(const std::string& bytes);
/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Summary of a traced run, from the harness's own bench.* spans:
///  * trace_overhead: traced cost per unit of work over the untraced
///    cost, minus one (`tracedOverUntraced` - 1);
///  * trace_coverage: time inside outermost bench spans over
///    `tracedThreadMs`, the traced wall-clock summed over the threads
///    that issued spans;
///  * <layer>.self_ms for each of the nine layers: span time minus the
///    part covered by nested bench spans, divided by `passes`;
///  * <layer>.self_share: that layer's share of all layers' self time.
/// Writes the Chrome trace to `traceOut` unless it is empty.
void reportTraceSummary(Report& report, double tracedOverUntraced,
                        double tracedThreadMs, double passes,
                        const std::string& traceOut);

}  // namespace perfbench
