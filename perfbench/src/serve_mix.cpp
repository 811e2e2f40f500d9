// The serve-mix workload: a closed loop of kClients threads against one
// serve::CompileService. Each client draws a kernel from a zipf(s = 1.1)
// distribution over a seeded corpus, calls handle() and waits for the
// reply before sending the next request.
//
// The corpus holds fuzz DAGs (testing::sampleDagSpec), the example
// kernels sent as kernel-language source, and alpha-renamed, renumbered,
// operand-shuffled variants of the most popular DAGs, which the service
// can only serve from its canonical level. Each kernel's shape, target
// dim (256 or 1024, alternating) and popularity rank are fixed; the seed
// draws the DAG instances, the variants and the request streams, so every
// seed offers the same traffic shape. The cache holds fewer programs than
// the corpus has distinct kernels, so hits, compiles and evictions mix.
//
// After the loop, every served payload is checked byte for byte against
// a cache-disabled service, and every distinct kernel is replayed through
// the toolchain's public functions (frontend or ir parse, canonicalize,
// canonical form, substitution, then pipeline.h), which gives the
// miss-path split per layer, the modeled metrics of the served programs,
// and one more byte check: the replayed assembly must be the body of the
// served program.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "frontend/lowering.h"
#include "ir/canonical.h"
#include "ir/serialize.h"
#include "pipeline.h"
#include "runs.h"
#include "serve/service.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tests/dag_fuzz.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "workloads/random_dag.h"

namespace perfbench {

using namespace sherlock;

namespace {

constexpr int kClients = 4;
constexpr int kFuzzKernels = 96;
/// Popular DAG kernels that get renamed variants, and variants of each.
constexpr int kVariedKernels = 16;
constexpr int kVariantsPerKernel = 2;
constexpr double kZipfS = 1.1;
/// Below the number of distinct kernels (kFuzzKernels + examples).
constexpr size_t kCacheCapacity = 48;
/// Fuzz DAGs carry ops of up to 4 operands.
constexpr int kMra = 4;
/// Loop segments, each followed by one replay of the distinct kernels.
constexpr size_t kSegments = 3;

struct Entry {
  std::string source;
  std::string lang;   ///< "dag" | "kernel"
  int dim = 256;
  size_t kernel = 0;  ///< distinct kernel this entry is (a variant of)
  bool variant = false;
  std::string name;
};

/// Entries in popularity order (entry 0 is the most requested).
struct Corpus {
  std::vector<Entry> entries;
  std::vector<double> cumulative;  ///< zipf CDF over entries
  size_t kernels = 0;
  double buildMs = 0;  ///< fuzz DAG construction (the workloads layer)
  /// Per client: the entry of its first request.
  std::vector<size_t> coldStarts;

  size_t draw(Rng& rng) const {
    double u = rng.uniform() * cumulative.back();
    size_t i = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    return std::min(i, entries.size() - 1);
  }
};

serve::RequestOptions requestFor(const Entry& e) {
  serve::RequestOptions o;
  o.lang = e.lang;
  o.targetDim = e.dim;
  o.mra = kMra;
  return o;
}

/// An isomorphic copy of `g`: nodes re-emitted in a random topological
/// order, inputs renamed, operands of every n-ary op shuffled (the
/// variants tests/canonical_test.cpp proves canonicalize alike).
ir::Graph scramble(const ir::Graph& g, Rng& rng) {
  size_t n = g.numNodes();
  std::vector<int> pending(n, 0);
  std::vector<ir::NodeId> ready;
  for (ir::NodeId id = g.firstId(); id < g.endId(); ++id) {
    std::vector<ir::NodeId> distinct = g.node(id).operands;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    pending[static_cast<size_t>(id)] = static_cast<int>(distinct.size());
    if (distinct.empty()) ready.push_back(id);
  }
  ir::Graph out;
  std::vector<ir::NodeId> remap(n, ir::kInvalidNode);
  int inputs = 0;
  while (!ready.empty()) {
    size_t pick = rng.below(ready.size());
    ir::NodeId id = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    const ir::Node& node = g.node(id);
    ir::NodeId mapped;
    if (node.isInput()) {
      mapped = out.addInput(strCat("x", inputs++, "_", rng.below(1000)));
    } else if (node.isConst()) {
      mapped = out.addConst(node.constValue);
    } else {
      std::vector<ir::NodeId> operands;
      for (ir::NodeId o : node.operands)
        operands.push_back(remap[static_cast<size_t>(o)]);
      if (!ir::isUnary(node.op))
        std::shuffle(operands.begin(), operands.end(), rng);
      mapped = out.addOp(node.op, std::move(operands));
    }
    remap[static_cast<size_t>(id)] = mapped;
    for (ir::NodeId u : node.users)
      if (--pending[static_cast<size_t>(u)] == 0) ready.push_back(u);
  }
  for (ir::NodeId o : g.outputs())
    out.markOutput(remap[static_cast<size_t>(o)]);
  return out;
}

std::vector<std::pair<std::string, std::string>> readExampleKernels(
    const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> kernels;
  fs::path dir = fs::path(root) / "examples" / "kernels";
  for (const auto& file : fs::directory_iterator(dir))
    if (file.path().extension() == ".sk") {
      std::ifstream in(file.path());
      std::stringstream text;
      text << in.rdbuf();
      kernels.emplace_back(file.path().filename().string(), text.str());
    }
  std::sort(kernels.begin(), kernels.end());
  if (kernels.empty())
    throw Error(strCat("no example kernels under ", dir.string()));
  return kernels;
}

Corpus buildCorpus(uint64_t seed, const std::string& root) {
  Corpus corpus;
  std::vector<Entry> kernels;
  std::vector<ir::Graph> graphs;  // parallel to kernels; empty for .sk
  for (int k = 0; k < kFuzzKernels; ++k) {
    workloads::RandomDagSpec spec =
        testing::sampleDagSpec(static_cast<uint64_t>(k + 1));
    spec.seed = deriveSeed(seed, static_cast<uint64_t>(k));
    ir::Graph g;
    {
      LayerCall call("bench.workloads", "random_dag", &corpus.buildMs);
      g = workloads::buildRandomDag(spec);
    }
    Entry e;
    e.source = ir::graphToText(g);
    e.lang = "dag";
    e.name = strCat("fuzz", k, "_ops", spec.ops);
    kernels.push_back(std::move(e));
    graphs.push_back(std::move(g));
  }
  for (auto& [name, text] : readExampleKernels(root)) {
    Entry e;
    e.source = std::move(text);
    e.lang = "kernel";
    e.name = name;
    kernels.push_back(std::move(e));
    graphs.emplace_back();
  }
  for (size_t k = 0; k < kernels.size(); ++k)
    kernels[k].dim = k % 2 == 0 ? 256 : 1024;
  // A fixed popularity order, uncorrelated with size and dim.
  std::vector<size_t> order(kernels.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng fixedRng(0x5eedf00d);
  std::shuffle(order.begin(), order.end(), fixedRng);

  Rng rng(deriveSeed(seed, 0xc0a905));
  int varied = 0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    size_t k = order[rank];
    Entry base = kernels[k];
    base.kernel = k;
    corpus.entries.push_back(base);
    if (base.lang != "dag" || varied >= kVariedKernels) continue;
    ++varied;
    for (int v = 0; v < kVariantsPerKernel; ++v) {
      Entry variant = base;
      variant.source = ir::graphToText(scramble(graphs[k], rng));
      variant.variant = true;
      variant.name = strCat(base.name, "~", v);
      corpus.entries.push_back(std::move(variant));
    }
  }
  corpus.kernels = kernels.size();
  for (size_t i = 0; i < corpus.entries.size() &&
                     corpus.coldStarts.size() < kClients;
       ++i)
    if (corpus.entries[i].dim == 1024 && !corpus.entries[i].variant)
      corpus.coldStarts.push_back(i);
  double total = 0;
  for (size_t r = 0; r < corpus.entries.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    corpus.cumulative.push_back(total);
  }
  return corpus;
}

struct Sample {
  double ms = 0;
  double compileMs = 0;  ///< > 0 on the request that compiled
  bool hit = false;
  int dim = 0;
};

struct LoopResult {
  std::vector<Sample> samples;
  double wallMs = 0;
  std::string metricsJson;
  /// First payload served per entry; later ones must match it.
  std::vector<std::shared_ptr<const std::string>> served;
  std::vector<std::string> failures;
};

/// Runs the closed loop against a fresh service for `seconds`.
LoopResult closedLoop(const Corpus& corpus, uint64_t seed, double seconds) {
  serve::ServiceOptions options;
  options.cacheCapacity = kCacheCapacity;
  serve::CompileService service(options);
  LoopResult result;
  result.served.resize(corpus.entries.size());
  std::mutex mu;  // guards result.served, result.samples, result.failures
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](int id) {
    Rng rng(deriveSeed(seed, 0xc11e47 + static_cast<uint64_t>(id)));
    std::vector<Sample> samples;
    std::vector<std::string> failures;
    // The first request of every client is a different cold kernel at
    // dim 1024, so each run reaches the same peak of concurrent large
    // compiles (peak_rss_mb) instead of whatever the draws happen to give.
    std::optional<size_t> next = corpus.coldStarts[static_cast<size_t>(id)];
    while (Clock::now() < deadline) {
      size_t i = next ? *next : corpus.draw(rng);
      next.reset();
      const Entry& e = corpus.entries[i];
      Clock::time_point t0 = Clock::now();
      serve::CompileResponse response;
      {
        LayerCall call("bench.serve", "handle", nullptr);
        response = service.handle(e.source, requestFor(e));
      }
      samples.push_back({msSince(t0), response.compileUs / 1000.0,
                         response.cacheHit, e.dim});
      if (!response.ok) {
        failures.push_back(strCat(e.name, ": ", response.payload));
        continue;
      }
      std::shared_ptr<const std::string> first;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!result.served[i])
          result.served[i] =
              std::make_shared<const std::string>(response.payload);
        first = result.served[i];
      }
      if (*first != response.payload)
        failures.push_back(
            strCat(e.name, ": two responses for one request differ"));
    }
    std::lock_guard<std::mutex> lock(mu);
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
    result.failures.insert(result.failures.end(), failures.begin(),
                           failures.end());
  };
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  }
  result.wallMs = msSince(start);
  result.metricsJson = service.metricsJson();
  return result;
}

/// The value of `"name": <number>` in a MetricsRegistry JSON dump, 0 when
/// absent (counters appear on first use).
double metricValue(const std::string& json, const std::string& name) {
  std::string key = strCat("\"", name, "\": ");
  size_t at = json.find(key);
  return at == std::string::npos
             ? 0
             : std::strtod(json.c_str() + at + key.size(), nullptr);
}

/// Replays one distinct kernel through the toolchain's public functions,
/// the path a cache miss takes inside the service, and returns the
/// program's assembly.
std::optional<std::string> replay(const Entry& e, PassStats& pass,
                                  Report& report) {
  try {
    double compileBefore = pass.compileMs();
    double simBefore = pass.simMs;
    ir::Graph g;
    if (e.lang == "kernel") {
      LayerCall call("bench.frontend", "compile_kernel", &pass.frontendMs);
      g = frontend::compileKernel(e.source);
    } else {
      LayerCall call("bench.ir", "parse_dag", &pass.irMs);
      g = ir::graphFromText(e.source);
    }
    {
      LayerCall call("bench.transforms", "canonicalize",
                     &pass.canonicalizeMs);
      g = transforms::canonicalize(g);
    }
    {
      LayerCall call("bench.ir", "canonical_form", &pass.irMs);
      g = ir::canonicalForm(g).graph;
    }
    {
      LayerCall call("bench.transforms", "substitute", &pass.substituteMs);
      transforms::SubstitutionOptions sopt;
      sopt.maxOperands = kMra;
      g = transforms::substituteNodes(g, sopt).graph;
    }
    isa::TargetSpec target = isa::TargetSpec::square(
        e.dim, device::TechnologyParams::reRam(), kMra);
    std::optional<std::string> asmText =
        lowerAndSimulate(e.name, g, target, LowerOptions{}, pass, report);
    pass.compileMsEach.push_back(pass.compileMs() - compileBefore);
    pass.simMsEach.push_back(pass.simMs - simBefore);
    return asmText;
  } catch (const std::exception& ex) {
    report.fail(strCat(e.name, ": replay: ", ex.what()));
    return std::nullopt;
  }
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Byte check of every served payload against a cache-disabled service.
/// Returns the reference payload of every distinct kernel.
std::vector<std::string> checkServed(
    const Corpus& corpus, const std::vector<const LoopResult*>& loops,
    Report& report) {
  serve::ServiceOptions options;
  options.cacheCapacity = 0;
  serve::CompileService reference(options);
  std::vector<std::string> kernelPayload(corpus.kernels);
  for (size_t i = 0; i < corpus.entries.size(); ++i) {
    const Entry& e = corpus.entries[i];
    bool served = std::any_of(loops.begin(), loops.end(),
                              [&](const LoopResult* l) {
                                return l->served[i] != nullptr;
                              });
    if (!served && e.variant) continue;
    report.attempt();
    serve::CompileResponse cold = reference.handle(e.source, requestFor(e));
    if (!cold.ok) {
      report.fail(strCat(e.name, ": cold reference compile failed: ",
                         cold.payload));
      continue;
    }
    for (const LoopResult* l : loops)
      if (l->served[i] && *l->served[i] != cold.payload)
        report.fail(strCat(e.name, ": served payload differs from a "
                                   "cache-disabled compile"));
    if (!e.variant) kernelPayload[e.kernel] = cold.payload;
  }
  return kernelPayload;
}

/// Replays every distinct kernel. `asmByKernel` receives each kernel's
/// program, to be compared with the served one.
PassStats replayKernels(const Corpus& corpus,
                        std::vector<std::optional<std::string>>& asmByKernel,
                        Report& report) {
  PassStats pass;
  pass.buildMs = corpus.buildMs;
  asmByKernel.assign(corpus.kernels, std::nullopt);
  for (const Entry& e : corpus.entries) {
    if (e.variant) continue;
    report.attempt();
    asmByKernel[e.kernel] = replay(e, pass, report);
    if (asmByKernel[e.kernel])
      report.record(e.name, pass.fingerprints.back());
  }
  return pass;
}

void reportServeLayers(const LoopResult& loop, Report& report) {
  std::vector<double> hitUs, missMs, miss256, miss1024;
  double compileMs = 0, totalMs = 0;
  for (const Sample& s : loop.samples) {
    totalMs += s.ms;
    compileMs += s.compileMs;
    if (s.hit) hitUs.push_back(s.ms * 1000.0);
    if (s.compileMs > 0) {
      missMs.push_back(s.ms);
      (s.dim == 1024 ? miss1024 : miss256).push_back(s.ms);
    }
  }
  const std::string& m = loop.metricsJson;
  double hits = metricValue(m, "serve.hits");
  double direct = metricValue(m, "serve.direct_hits");
  double misses = metricValue(m, "serve.misses");
  double coalesced = metricValue(m, "serve.coalesced");
  double served = hits + misses + coalesced;
  report.metric("serve.hit_rate", served > 0 ? (hits + coalesced) / served : 0,
                "fraction");
  report.metric("serve.direct_hits", direct, "count");
  report.metric("serve.canonical_hits", hits - direct, "count");
  report.metric("serve.compiles", misses, "count");
  report.metric("serve.coalesced", coalesced, "count");
  report.metric("serve.evictions", metricValue(m, "serve.evictions"),
                "count");
  report.metric("serve.hit_us_p50", percentile(hitUs, 50), "us");
  report.metric("serve.miss_ms_p50", percentile(missMs, 50), "ms");
  report.metric("serve.miss_ms_p99", percentile(missMs, 99), "ms");
  report.metric("serve.compile_share", totalMs > 0 ? compileMs / totalMs : 0,
                "fraction");
  report.metric("mapping.cold_dim_ratio",
                miss256.empty() ? 0
                                : percentile(miss1024, 50) /
                                      percentile(miss256, 50),
                "ratio");
}

/// Wall-clock per completed request over a set of loop segments.
double msPerRequest(const std::vector<const LoopResult*>& loops) {
  double wallMs = 0, requests = 0;
  for (const LoopResult* l : loops) {
    wallMs += l->wallMs;
    requests += static_cast<double>(l->samples.size());
  }
  return wallMs / requests;
}

/// Request metrics per segment, reported as medians over segments. They
/// are not scaled to nominal host speed: four clients load every core,
/// and a single-threaded probe between segments tracks their speed worse
/// than the raw request rate repeats.
void reportLoop(const std::vector<const LoopResult*>& loops,
                Report& report) {
  std::vector<double> rps, p50, p99;
  for (const LoopResult* l : loops) {
    std::vector<double> ms;
    for (const Sample& s : l->samples) ms.push_back(s.ms);
    rps.push_back(static_cast<double>(ms.size()) / (l->wallMs / 1000.0));
    p50.push_back(percentile(ms, 50));
    p99.push_back(percentile(ms, 99));
    std::cerr << "perfbench: segment: " << ms.size() << " requests ("
              << ms.size() / 100 << " beyond p99), " << rps.back()
              << " req/s, p50 " << p50.back() << " ms, p99 " << p99.back()
              << " ms\n";
  }
  report.metric("ops_per_s", median(rps), "1/s");
  report.metric("op_ms_p50", median(p50), "ms");
  report.metric("op_ms_tail", median(p99), "ms");
}

}  // namespace

void runServeMix(const Args& args, Report& report) {
  Corpus corpus;
  report.metric(
      "setup_s",
      setupSeconds([&] { corpus = buildCorpus(args.seed, args.root); }), "s");

  // The loop runs in kSegments segments of equal length, each against a
  // fresh service and each followed by one replay; the figures reported
  // are medians over segments and replays, so a burst of host noise moves
  // one of them. Traced runs trace the middle segment and its replay
  // (untraced-traced-untraced, so warm-up and drift fall on both sides
  // of the overhead comparison). Untraced runs probe the host's speed on
  // either side of every replay and scale the replay's times by it.
  constexpr size_t kTraced = 1;
  constexpr int kProbeReps = 5;
  trace::Tracer& tracer = trace::Tracer::instance();
  std::vector<LoopResult> segments;
  std::vector<std::optional<std::string>> asmByKernel;
  std::vector<PassStats> replays;
  double tracedReplayMs = 0;
  for (size_t i = 0; i < kSegments; ++i) {
    bool traced = args.trace && i == kTraced;
    if (traced) tracer.enable();
    segments.push_back(closedLoop(corpus, args.seed, args.seconds / kSegments));
    double probeBefore = args.trace ? 0 : probeMs(kProbeReps);
    Clock::time_point replayStart = Clock::now();
    replays.push_back(replayKernels(corpus, asmByKernel, report));
    if (traced) tracedReplayMs = msSince(replayStart);
    tracer.disable();
    if (!args.trace) {
      double scale = speedScale(probeBefore, probeMs(kProbeReps));
      for (double& ms : replays.back().compileMsEach) ms *= scale;
      for (double& ms : replays.back().simMsEach) ms *= scale;
    }
    if (replays.back().fingerprints != replays.front().fingerprints)
      report.fail("a replay produced different programs or modeled "
                  "numbers than the first replay of this run");
  }
  std::vector<const LoopResult*> all, untraced;
  for (size_t i = 0; i < kSegments; ++i) {
    const LoopResult* l = &segments[i];
    all.push_back(l);
    if (!args.trace || i != kTraced) untraced.push_back(l);
    report.attempt(static_cast<long>(l->samples.size()));
    for (const std::string& why : l->failures) report.fail(why);
  }
  std::vector<std::string> kernelPayload = checkServed(corpus, all, report);
  for (size_t k = 0; k < corpus.kernels; ++k)
    if (asmByKernel[k] && !endsWith(kernelPayload[k], *asmByKernel[k]))
      report.fail(strCat("kernel ", k, ": replayed program differs from "
                                       "the served one"));

  reportModeled(replays.front(), report);
  if (!args.trace) {
    reportLoop(all, report);
    report.metric("compile_s",
                  sumOfMedians(replays, &PassStats::compileMsEach) / 1000.0,
                  "s");
    report.metric("simulate_s",
                  sumOfMedians(replays, &PassStats::simMsEach) / 1000.0, "s");
  } else {
    const LoopResult* traced = &segments[kTraced];
    reportLayerTimes({replays[kTraced]}, report);
    reportServeLayers(*traced, report);
    isa::TargetSpec small = isa::TargetSpec::square(
        256, device::TechnologyParams::reRam(), kMra);
    isa::TargetSpec large = isa::TargetSpec::square(
        1024, device::TechnologyParams::reRam(), kMra);
    report.metric("mapping.layout_init_ms",
                  (layoutInitMs(small, {}) + layoutInitMs(large, {})) / 2,
                  "ms");
    reportTraceSummary(report, msPerRequest({traced}) / msPerRequest(untraced),
                       traced->wallMs * kClients + tracedReplayMs, 1.0,
                       args.traceOut);
  }
  report.metric("peak_rss_mb", peakRssMb(), "MB");
}

}  // namespace perfbench
