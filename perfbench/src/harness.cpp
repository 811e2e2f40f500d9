#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "support/diagnostics.h"

namespace perfbench {

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision rendering, so repeated values compare exactly.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::record(const std::string& key, const std::string& value) {
  record_[key] = value;
}

void Report::record(const std::string& key, double value) {
  record_[key] = number(value);
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "perfbench: FAIL: " << why << "\n";
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
        << number(metric.first) << ", \"unit\": " << jsonString(metric.second)
        << "}";
    first = false;
  }
  out << "}, \"record\": {";
  first = true;
  for (const auto& [key, value] : record_) {
    out << (first ? "" : ", ") << jsonString(key) << ": "
        << jsonString(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

/// Keeps the probe's result alive, so the compiler cannot drop the work.
volatile size_t probeSink;

void probeOnce() {
  constexpr int kNodes = 60000;
  constexpr int kOperands = 3;
  std::vector<std::vector<int>> operands(kNodes), users(kNodes);
  uint64_t x = 11;
  for (int i = 1; i < kNodes; ++i)
    for (int k = 0; k < kOperands; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      int o = static_cast<int>((x >> 33) % static_cast<uint64_t>(i));
      operands[i].push_back(o);
      users[o].push_back(i);
    }
  std::vector<int> pending(kNodes), order;
  order.reserve(kNodes);
  std::deque<int> ready;
  for (int i = 0; i < kNodes; ++i) {
    pending[i] = static_cast<int>(operands[i].size());
    if (pending[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    int i = ready.front();
    ready.pop_front();
    order.push_back(i);
    for (int u : users[i])
      if (--pending[u] == 0) ready.push_back(u);
  }
  std::unordered_map<uint64_t, int> consed;
  for (int i : order) {
    uint64_t key = 0;
    for (int o : operands[i]) key = key * 1000003u + static_cast<uint64_t>(o);
    consed.emplace(key, i);
  }
  probeSink = consed.size() + order.size();
}

}  // namespace

double probeMs(int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point start = Clock::now();
    probeOnce();
    times.push_back(msSince(start));
  }
  return median(times);
}

double setupSeconds(const std::function<void()>& setUp) {
  std::vector<double> seconds;
  double probeBefore = probeMs();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    setUp();
    double ms = msSince(start);
    double probeAfter = probeMs();
    seconds.push_back(ms * speedScale(probeBefore, probeAfter) / 1000.0);
    probeBefore = probeAfter;
  }
  return median(seconds);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  size_t idx = std::min(values.size() - 1, static_cast<size_t>(rank + 0.5));
  return values[idx];
}

double geomean(const std::vector<double>& values) {
  double logSum = 0;
  long n = 0;
  for (double v : values)
    if (v > 0) {
      logSum += std::log(v);
      ++n;
    }
  return n == 0 ? 0 : std::exp(logSum / static_cast<double>(n));
}

std::string digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// The layers the harness attributes time to, in report order.
const char* const kLayers[] = {"workloads", "frontend", "transforms",
                               "ir",        "mapping",  "verify",
                               "sim",       "device",   "serve"};

struct LayerTimes {
  std::map<std::string, double> selfMs;  ///< keyed by layer name
  double topLevelMs = 0;                 ///< inside outermost bench spans
};

LayerTimes layerTimesFromTrace() {
  using sherlock::trace::TraceEvent;
  struct Open {
    bool bench = false;
    std::string layer;
    double startNs = 0;
    double childNs = 0;  ///< covered by nested bench spans
  };
  // End events carry no category: they close the innermost open span of
  // their track, whichever file emitted it, so every span is tracked and
  // only the bench.* ones are attributed.
  std::map<uint32_t, std::vector<Open>> stacks;
  LayerTimes times;
  for (const TraceEvent& e :
       sherlock::trace::Tracer::instance().snapshot()) {
    std::vector<Open>& stack = stacks[e.track];
    if (e.phase == TraceEvent::Phase::Begin) {
      std::string category = e.category;
      bool bench = category.rfind("bench.", 0) == 0;
      stack.push_back({bench, bench ? category.substr(6) : "", e.ts, 0});
    } else if (e.phase == TraceEvent::Phase::End && !stack.empty()) {
      Open span = stack.back();
      stack.pop_back();
      if (!span.bench) continue;
      double durNs = e.ts - span.startNs;
      times.selfMs[span.layer] += (durNs - span.childNs) * 1e-6;
      auto parent = std::find_if(stack.rbegin(), stack.rend(),
                                 [](const Open& o) { return o.bench; });
      if (parent != stack.rend())
        parent->childNs += durNs;
      else
        times.topLevelMs += durNs * 1e-6;
    }
  }
  return times;
}

}  // namespace

void reportTraceSummary(Report& report, double tracedOverUntraced,
                        double tracedThreadMs, double passes,
                        const std::string& traceOut) {
  sherlock::trace::Tracer& tracer = sherlock::trace::Tracer::instance();
  if (tracer.droppedEvents() > 0)
    report.fail(sherlock::strCat("tracer dropped ", tracer.droppedEvents(),
                                 " events; per-layer times are incomplete"));
  report.metric("trace_overhead", tracedOverUntraced - 1.0, "fraction");
  LayerTimes times = layerTimesFromTrace();
  report.metric("trace_coverage", times.topLevelMs / tracedThreadMs,
                "fraction");
  double totalSelfMs = 0;
  for (const auto& entry : times.selfMs) totalSelfMs += entry.second;
  for (const char* layer : kLayers) {
    auto it = times.selfMs.find(layer);
    double ms = it == times.selfMs.end() ? 0 : it->second;
    report.metric(std::string(layer) + ".self_ms", ms / passes, "ms");
    report.metric(std::string(layer) + ".self_share",
                  totalSelfMs > 0 ? ms / totalSelfMs : 0, "fraction");
  }
  if (!traceOut.empty()) tracer.writeJson(traceOut);
}

}  // namespace perfbench
