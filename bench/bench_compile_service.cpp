// Compile-service throughput bench (BENCH_8.json): replays a
// zipf-distributed stream of fuzz-generated kernels against the
// content-addressed LRU compile cache at several capacities, reporting
// throughput, hit rate, and hit/cold latency percentiles, and verifying
// that every cached response is byte-identical to a cold compile of the
// same request.
//
// Determinism contract for the CI gate: the kernel set, the zipf
// request stream, and therefore the hit/miss sequence of the *serial*
// replays are pure functions of the seeds below, so their hit rates are
// byte-stable run over run and compare_bench.py gates them against the
// checked-in BENCH_8.json. The concurrent replay runs at full cache
// capacity, where the compile count (= distinct kernels) — and hence
// the hit rate — stays deterministic even under racing batches.
// Wall-clock metrics (throughput, latency percentiles) vary by machine
// and are reported, not gated; the machine-independent acceptance
// criterion checked here is the hit-vs-cold latency ratio.
//
// Exit status: 0 only if every response matched its cold reference
// byte-for-byte AND the serial full-cache replay served hits >= 10x
// faster than cold compiles (p50).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/json.h"
#include "ir/serialize.h"
#include "serve/service.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/table.h"
#include "tests/dag_fuzz.h"
#include "workloads/random_dag.h"

using namespace sherlock;
using namespace sherlock::bench;

namespace {

constexpr int kKernels = 64;
constexpr int kRequests = 1200;
constexpr double kZipfS = 1.1;
constexpr int kTargetDim = 256;
constexpr uint64_t kStreamSeed = 0x5eedf00d;

/// The request stream: kernel index per request, zipf-ranked with a
/// seeded rank->kernel permutation so popularity is not correlated with
/// generation order.
std::vector<int> zipfStream(int kernels, int requests, double s,
                            uint64_t seed) {
  std::vector<double> cumulative(static_cast<size_t>(kernels));
  double total = 0;
  for (int rank = 0; rank < kernels; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cumulative[static_cast<size_t>(rank)] = total;
  }
  Rng rng(seed);
  std::vector<int> permutation(static_cast<size_t>(kernels));
  for (int i = 0; i < kernels; ++i) permutation[static_cast<size_t>(i)] = i;
  for (int i = kernels - 1; i > 0; --i)
    std::swap(permutation[static_cast<size_t>(i)],
              permutation[rng.below(static_cast<uint64_t>(i + 1))]);
  std::vector<int> stream;
  stream.reserve(static_cast<size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    double u = rng.uniform() * total;
    int rank = static_cast<int>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    if (rank >= kernels) rank = kernels - 1;
    stream.push_back(permutation[static_cast<size_t>(rank)]);
  }
  return stream;
}

struct ReplayResult {
  double wallSeconds = 0;
  uint64_t mismatches = 0;
};

/// Replays the stream against `service`. batchSize 0 = serial;
/// otherwise requests are fanned out on `pool` in fixed batches (the
/// order *within* a batch is scheduler-chosen, batches stay ordered).
ReplayResult replay(serve::CompileService& service,
                    const std::vector<std::string>& kernels,
                    const std::vector<int>& stream,
                    const std::vector<std::string>& reference,
                    size_t batchSize, ThreadPool* pool) {
  serve::RequestOptions request;
  request.targetDim = kTargetDim;
  request.mra = 4;  // fuzz DAGs carry ops up to arity 4

  ReplayResult result;
  auto t0 = std::chrono::steady_clock::now();
  auto handleOne = [&](int kernel) -> uint64_t {
    serve::CompileResponse response =
        service.handle(kernels[static_cast<size_t>(kernel)], request);
    if (!response.ok) {
      std::cerr << "request failed: " << response.payload;
      return 1;
    }
    return response.payload == reference[static_cast<size_t>(kernel)] ? 0
                                                                      : 1;
  };
  if (batchSize == 0) {
    for (int kernel : stream) result.mismatches += handleOne(kernel);
  } else {
    for (size_t start = 0; start < stream.size(); start += batchSize) {
      size_t n = std::min(batchSize, stream.size() - start);
      std::vector<uint64_t> bad(n, 0);
      pool->parallelFor(static_cast<int64_t>(n), [&](int64_t i) {
        bad[static_cast<size_t>(i)] =
            handleOne(stream[start + static_cast<size_t>(i)]);
      });
      for (uint64_t b : bad) result.mismatches += b;
    }
  }
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = jsonPathArg(argc, argv);

  // Kernel corpus: the differential-fuzz DAG sampler, serialized to the
  // protocol's dag format. The service canonicalizes internally.
  std::vector<std::string> kernels;
  kernels.reserve(kKernels);
  for (int k = 0; k < kKernels; ++k)
    kernels.push_back(ir::graphToText(workloads::buildRandomDag(
        testing::sampleDagSpec(static_cast<uint64_t>(k + 1)))));
  std::vector<int> stream =
      zipfStream(kKernels, kRequests, kZipfS, kStreamSeed);

  // Cold references: a cache-disabled service compiles each kernel
  // once; every replay response must match these bytes exactly.
  std::vector<std::string> reference(static_cast<size_t>(kKernels));
  {
    serve::ServiceOptions options;
    options.cacheCapacity = 0;
    serve::CompileService cold(options);
    serve::RequestOptions request;
    request.targetDim = kTargetDim;
    request.mra = 4;  // fuzz DAGs carry ops up to arity 4
    for (int k = 0; k < kKernels; ++k) {
      serve::CompileResponse response =
          cold.handle(kernels[static_cast<size_t>(k)], request);
      if (!response.ok) {
        std::cerr << "cold reference compile failed: " << response.payload;
        return 1;
      }
      reference[static_cast<size_t>(k)] = response.payload;
    }
  }

  struct Point {
    size_t capacity;
    size_t batch;  // 0 = serial
  };
  const Point points[] = {{4, 0}, {16, 0}, {64, 0}, {64, 32}};
  // Fixed pool size: the concurrent point must exercise concurrency
  // even on single-core runners, and its hit rate stays deterministic
  // because the cache holds the full kernel set (no evictions).
  ThreadPool pool(4);

  Table table(strCat("Compile service — ", kRequests,
                     " zipf(s=", kZipfS, ") requests over ", kKernels,
                     " kernels, dim ", kTargetDim));
  table.setHeader({"cache", "mode", "hit rate", "compiles", "evictions",
                   "req/s", "hit p50 us", "hit p99 us", "cold p50 us",
                   "cold p99 us", "p50 speedup"});

  Json configs = Json::array();
  bool ok = true;
  double gatedSpeedup = 0;
  for (const Point& point : points) {
    serve::ServiceOptions options;
    options.cacheCapacity = point.capacity;
    serve::CompileService service(options);
    ReplayResult r =
        replay(service, kernels, stream, reference, point.batch, &pool);
    if (r.mismatches != 0) {
      std::cerr << "FAIL: " << r.mismatches
                << " responses differed from their cold-compile "
                   "reference (cache "
                << point.capacity << ")\n";
      ok = false;
    }
    const MetricsRegistry& metrics = service.metrics();
    MetricsRegistry::HistogramSnapshot hit = metrics.histogram("serve.hit_us");
    MetricsRegistry::HistogramSnapshot cold =
        metrics.histogram("serve.cold_us");
    double hitRate = metrics.gaugeValue("serve.hit_rate");
    long compiles = static_cast<long>(metrics.counterValue("serve.misses"));
    long evictions = static_cast<long>(metrics.gaugeValue("serve.evictions"));
    double speedup = hit.p50 > 0 ? cold.p50 / hit.p50 : 0;
    bool serialFull = point.batch == 0 && point.capacity >= kKernels;
    if (serialFull) gatedSpeedup = speedup;
    double rps = static_cast<double>(kRequests) / r.wallSeconds;
    std::string mode = point.batch == 0
                           ? "serial"
                           : strCat("batch=", point.batch, " x",
                                    pool.threadCount(), " threads");
    table.addRow({std::to_string(point.capacity), mode,
                  Table::num(hitRate, 3), std::to_string(compiles),
                  std::to_string(evictions), Table::num(rps, 0),
                  Table::num(hit.p50, 1), Table::num(hit.p99, 1),
                  Table::num(cold.p50, 1), Table::num(cold.p99, 1),
                  Table::num(speedup, 1)});

    Json c = Json::object();
    c.set("workload", point.batch == 0 ? "zipf-serial" : "zipf-concurrent")
        .set("tech", "reram")
        .set("array_dim", kTargetDim)
        .set("cache_size", static_cast<long>(point.capacity))
        .set("requests", kRequests)
        .set("kernels", kKernels)
        .set("zipf_s", kZipfS)
        // Deterministic (gated): the serial hit/miss sequence is a pure
        // function of the seeds; the concurrent point runs at full
        // capacity where compiles == kernels regardless of order.
        .set("hit_rate", hitRate)
        .set("compiles", compiles)
        .set("coalesced",
             static_cast<long>(metrics.counterValue("serve.coalesced")))
        .set("evictions", evictions)
        // Machine-dependent (reported, not gated).
        .set("throughput_rps", rps)
        .set("hit_p50_us", hit.p50)
        .set("hit_p99_us", hit.p99)
        .set("cold_p50_us", cold.p50)
        .set("cold_p99_us", cold.p99)
        .set("hit_speedup_p50", speedup);
    configs.push(std::move(c));
  }
  table.print(std::cout);

  std::cout << "\nCached responses byte-identical to cold compiles: "
            << (ok ? "yes" : "NO") << "\n"
            << "Serial full-cache hit speedup (cold p50 / hit p50): "
            << gatedSpeedup << "x (gate: >= 10x)\n";
  if (gatedSpeedup < 10.0) {
    std::cerr << "FAIL: cache-hit latency not >= 10x lower than cold "
                 "compile latency\n";
    ok = false;
  }

  if (!jsonPath.empty()) {
    Json root = Json::object();
    root.set("schema_version", kBenchSchemaVersion)
        .set("pr", 8)
        .set("title",
             "Compile-service daemon with content-addressed kernel cache")
        .set("benchmark",
             strCat("bench_compile_service: ", kRequests, " zipf(s=",
                    kZipfS, ") requests over ", kKernels,
                    " fuzz kernels, LRU capacities 4/16/64, dim ",
                    kTargetDim))
        .set("metric",
             "hit_rate per (cache_size, mode) config (deterministic, "
             "gated); latency/throughput are wall-clock (reported)")
        .set("byte_identical", ok)
        .set("hit_speedup_p50", gatedSpeedup)
        .set("configs", std::move(configs));
    writeJson(jsonPath, root);
  }
  return ok ? 0 : 1;
}
