// The two serial batch workloads, paper-batch and faulty-guarded.
//
// A pass compiles and simulates every config of the workload once, in a
// fixed order, on the calling thread. Each config is built from scratch
// (workloads), canonicalized and, at MRA > 2, node-substituted
// (transforms), given its fault map (device), then placed, code-generated,
// verified and simulated (pipeline.h) — the stages of
// bench/common.h::runPipeline, called one by one so each can be timed
// from outside.
#include <algorithm>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "device/faultmap.h"
#include "ir/serialize.h"
#include "pipeline.h"
#include "runs.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/sobel.h"

namespace perfbench {

using namespace sherlock;

namespace {

/// Bulk width of the evaluated workloads, as in bench/common.h.
constexpr int kBulkBits = 4096;

struct Config {
  std::string kernel;  ///< "Bitweaving" | "Sobel" | "AES"
  uint64_t sobelThreshold = 128;
  device::Technology tech = device::Technology::ReRam;
  int dim = 1024;
  int mra = 2;
  bool optimized = true;
  double stuckDensity = 0;
  double weakDensity = 0;
  uint64_t faultSeed = 1;
  int spareRows = 0;
  bool guarded = false;
  int laneWords = 1;
  uint64_t inputSeed = 0x5eed;

  bool faulty() const { return stuckDensity > 0 || weakDensity > 0; }
  std::string label() const {
    std::ostringstream out;
    out << kernel << "/" << (optimized ? "opt" : "naive") << "/" << dim
        << "/mra" << mra;
    if (faulty()) out << "/fault" << std::hex << faultSeed;
    return out.str();
  }
  /// The kernel instance a config builds; several configs share one.
  std::string kernelKey() const {
    return kernel == "Sobel" ? strCat(kernel, "@", sobelThreshold) : kernel;
  }
  isa::TargetSpec target() const {
    isa::TargetSpec t = isa::TargetSpec::square(
        dim, device::TechnologyParams::forTechnology(tech), mra);
    t.geometry.dataWidthBits = kBulkBits;
    return t;
  }
  device::FaultMap faultMap(const isa::TargetSpec& t) const {
    device::FaultMapOptions fo;
    fo.seed = faultSeed;
    fo.stuckDensity = stuckDensity;
    fo.weakDensity = weakDensity;
    return device::FaultMap::generate(t.numArrays, t.rows(), t.cols(), fo);
  }
};

ir::Graph buildKernel(const Config& c) {
  if (c.kernel == "Bitweaving") {
    workloads::BitweavingSpec s;
    s.bits = 16;
    s.segments = 32;
    return workloads::buildBitweaving(s);
  }
  if (c.kernel == "Sobel") {
    workloads::SobelSpec s;
    s.width = 16;
    s.threshold = c.sobelThreshold;
    return workloads::buildSobel(s);
  }
  return workloads::buildAes({10});
}

/// Compiles and simulates one config into `pass`. The kernel build must
/// reproduce the set-up reference digest.
void runConfig(const Config& c, const std::string& referenceDigest,
               PassStats& pass, Report& report) {
  report.attempt();
  try {
    double compileBefore = pass.compileMs();
    double simBefore = pass.simMs;
    ir::Graph raw;
    {
      LayerCall call("bench.workloads", "build", &pass.buildMs);
      raw = buildKernel(c);
    }
    ir::Graph g;
    {
      LayerCall call("bench.transforms", "canonicalize",
                     &pass.canonicalizeMs);
      g = transforms::canonicalize(raw);
    }
    if (c.mra > 2) {
      LayerCall call("bench.transforms", "substitute", &pass.substituteMs);
      transforms::SubstitutionOptions sopt;
      sopt.maxOperands = c.mra;
      sopt.order = c.optimized ? transforms::MergeOrder::ByAffinity
                               : transforms::MergeOrder::ByPriority;
      g = transforms::substituteNodes(g, sopt).graph;
    }
    isa::TargetSpec target = c.target();
    std::optional<device::FaultMap> faults;
    if (c.faulty()) {
      LayerCall call("bench.device", "faultmap", &pass.faultmapMs);
      faults = c.faultMap(target);
    }
    LowerOptions lower;
    lower.optimized = c.optimized;
    lower.faults = {faults ? &*faults : nullptr, c.spareRows};
    lower.sim.laneWords = c.laneWords;
    lower.sim.inputSeed = c.inputSeed;
    lower.sim.faultMap = lower.faults.map;
    lower.sim.guardedExecution = c.guarded;
    lower.sim.injectFaults = c.guarded;
    lower.sim.faultSeed = c.faultSeed;
    if (!lowerAndSimulate(c.label(), g, target, lower, pass, report))
      return;
    pass.compileMsEach.push_back(pass.compileMs() - compileBefore);
    pass.simMsEach.push_back(pass.simMs - simBefore);
    if (digest(ir::graphToText(raw)) != referenceDigest)
      report.fail(strCat(c.label(), ": kernel build is not deterministic"));
  } catch (const std::exception& e) {
    report.fail(strCat(c.label(), ": ", e.what()));
  }
}

/// One pass over the configs; traced passes ran with the tracer on.
struct TimedPass {
  PassStats stats;
  double wallMs = 0;
  bool traced = false;
};

/// Runs passes until `budgetS` seconds have elapsed. Pass 0 warms the
/// process up (allocator, caches, lazy set-up) and only checks outputs;
/// the figures come from the passes after it, of which at least one is
/// complete. Untraced, the last pass stops at
/// the deadline, so a run does not overshoot its budget by most of a
/// pass. With `traceMiddle`, the whole passes that start in the middle
/// half of the budget run traced and the others untraced, so drift falls
/// on both sides of the comparison; at least one timed pass of each kind
/// runs, the last one untraced.
/// Every pass must reproduce the first pass's fingerprints exactly.
std::vector<TimedPass> runPasses(
    const std::vector<Config>& configs,
    const std::map<std::string, std::string>& references, double budgetS,
    bool traceMiddle, Report& report) {
  trace::Tracer& tracer = trace::Tracer::instance();
  std::vector<TimedPass> passes;
  bool tracedAny = false;
  Clock::time_point start = Clock::now();
  auto elapsed = [&] { return msSince(start) / (budgetS * 1000.0); };
  for (;;) {
    if (passes.size() >= 2 && elapsed() >= 1 &&
        (!traceMiddle || (tracedAny && !passes.back().traced)))
      break;
    // The tracer is enabled at most once, because enabling restarts its
    // clock: the traced passes are one contiguous run.
    bool inMiddle = elapsed() >= 0.25 && elapsed() < 0.75;
    bool traced = traceMiddle && !passes.empty() &&
                  (tracedAny ? passes.back().traced && inMiddle
                             : elapsed() >= 0.25);
    if (traced && !tracedAny) tracer.enable();
    if (!traced) tracer.disable();
    tracedAny |= traced;
    TimedPass pass;
    pass.traced = traced;
    bool mayStop = !traceMiddle && passes.size() >= 2;
    Clock::time_point passStart = Clock::now();
    // Untraced, the probe runs between configs, and each config's times
    // are scaled by the probes on either side (the traced run reports raw
    // per-layer times and keeps the probe out of its spans).
    double probeBefore = traceMiddle ? 0 : probeMs();
    for (const Config& c : configs) {
      if (mayStop && elapsed() >= 1) break;
      size_t done = pass.stats.compileMsEach.size();
      runConfig(c, references.at(c.kernelKey()), pass.stats, report);
      if (traceMiddle || pass.stats.compileMsEach.size() == done) continue;
      double probeAfter = probeMs();
      double scale = speedScale(probeBefore, probeAfter);
      pass.stats.compileMsEach.back() *= scale;
      pass.stats.simMsEach.back() *= scale;
      probeBefore = probeAfter;
    }
    pass.wallMs = msSince(passStart);
    std::cerr << "perfbench: pass " << passes.size()
              << (passes.empty() ? " (warm-up)" : traced ? " (traced)" : "")
              << ": " << pass.stats.fingerprints.size() << " configs, compile "
              << pass.stats.compileMs() << " ms, simulate "
              << pass.stats.simMs << " ms\n";
    if (!passes.empty()) {
      const std::vector<std::string>& want = passes.front().stats.fingerprints;
      const std::vector<std::string>& got = pass.stats.fingerprints;
      if (got.size() > want.size() ||
          !std::equal(got.begin(), got.end(), want.begin()))
        report.fail("a pass produced different programs or modeled numbers "
                    "than the first pass of this run");
    }
    passes.push_back(std::move(pass));
  }
  tracer.disable();
  return passes;
}

/// Set-up: builds each distinct kernel once and keeps the digest of its
/// text as the reference every pass's build is checked against.
std::map<std::string, std::string> buildReferences(
    const std::vector<Config>& configs) {
  std::map<std::string, std::string> references;
  for (const Config& c : configs)
    if (!references.count(c.kernelKey()))
      references[c.kernelKey()] = digest(ir::graphToText(buildKernel(c)));
  return references;
}

/// Layout construction per distinct target, with and without the fault
/// map: mapping.layout_init_ms is the mean, mapping.cold_dim_ratio the
/// fault-free time at the largest dim over that at the smallest.
void reportLayoutInit(const std::vector<Config>& configs, Report& report) {
  std::map<int, double> faultFreeByDim;
  std::set<std::string> seen;
  double total = 0;
  int probes = 0;
  for (const Config& c : configs)
    for (bool withFaults : {false, true}) {
      if ((withFaults && !c.faulty()) ||
          !seen.insert(strCat(c.dim, "/", c.mra, "/", withFaults)).second)
        continue;
      isa::TargetSpec target = c.target();
      std::optional<device::FaultMap> faults;
      if (withFaults) faults = c.faultMap(target);
      double ms =
          layoutInitMs(target, {faults ? &*faults : nullptr, c.spareRows});
      total += ms;
      ++probes;
      if (!withFaults) faultFreeByDim[c.dim] = ms;
    }
  report.metric("mapping.layout_init_ms", total / probes, "ms");
  report.metric("mapping.cold_dim_ratio",
                faultFreeByDim.rbegin()->second /
                    faultFreeByDim.begin()->second,
                "ratio");
}

/// Host metrics from each config's median time over the passes after
/// the warm-up, at nominal host speed. A pass has too few configs for ten
/// samples beyond a high percentile, so the tail is p90 over configs: its
/// composition does not change with the number of passes that fit the
/// budget.
void reportEndToEnd(const std::vector<TimedPass>& passes, Report& report) {
  std::vector<PassStats> stats;
  for (size_t p = 1; p < passes.size(); ++p) stats.push_back(passes[p].stats);
  std::vector<double> opMs;
  for (size_t i = 0; i < stats.front().compileMsEach.size(); ++i) {
    std::vector<double> samples;
    for (const PassStats& p : stats)
      if (i < p.compileMsEach.size())
        samples.push_back(p.compileMsEach[i] + p.simMsEach[i]);
    opMs.push_back(median(samples));
  }
  double compileMs = sumOfMedians(stats, &PassStats::compileMsEach);
  double simMs = sumOfMedians(stats, &PassStats::simMsEach);
  report.metric("compile_s", compileMs / 1000.0, "s");
  report.metric("simulate_s", simMs / 1000.0, "s");
  report.metric("ops_per_s",
                static_cast<double>(opMs.size()) /
                    ((compileMs + simMs) / 1000.0),
                "1/s");
  report.metric("op_ms_p50", median(opMs), "ms");
  report.metric("op_ms_tail", percentile(opMs, 90), "ms");
  std::cerr << "perfbench: " << stats.size() << " timed passes of "
            << opMs.size() << " configs\n";
}

/// The serve metrics, which read zero because batch ops never reach the
/// serve layer.
void reportNoServe(Report& report) {
  for (const char* name :
       {"serve.direct_hits", "serve.canonical_hits", "serve.compiles",
        "serve.coalesced", "serve.evictions"})
    report.metric(name, 0, "count");
  report.metric("serve.hit_rate", 0, "fraction");
  report.metric("serve.compile_share", 0, "fraction");
  report.metric("serve.hit_us_p50", 0, "us");
  report.metric("serve.miss_ms_p50", 0, "ms");
  report.metric("serve.miss_ms_p99", 0, "ms");
}

void reportTraced(const std::vector<TimedPass>& passes,
                  const std::vector<Config>& configs, const Args& args,
                  Report& report) {
  std::vector<PassStats> traced;
  std::vector<double> tracedMs, untracedMs;
  double tracedWallMs = 0;
  for (size_t i = 1; i < passes.size(); ++i) {
    const TimedPass& p = passes[i];
    (p.traced ? tracedMs : untracedMs).push_back(p.wallMs);
    if (!p.traced) continue;
    traced.push_back(p.stats);
    tracedWallMs += p.wallMs;
  }
  reportLayerTimes(traced, report);
  reportLayoutInit(configs, report);
  reportTraceSummary(report, median(tracedMs) / median(untracedMs),
                     tracedWallMs, static_cast<double>(traced.size()),
                     args.traceOut);
  reportNoServe(report);
}

void runBatch(const std::vector<Config>& configs, const Args& args,
              Report& report) {
  std::map<std::string, std::string> references;
  report.metric("setup_s",
                setupSeconds([&] { references = buildReferences(configs); }),
                "s");

  std::vector<TimedPass> passes =
      runPasses(configs, references, args.seconds, args.trace, report);
  const PassStats& first = passes.front().stats;
  reportModeled(first, report);
  for (size_t i = 0; i < configs.size() && i < first.fingerprints.size();
       ++i)
    report.record(configs[i].label(), first.fingerprints[i]);
  if (args.trace)
    reportTraced(passes, configs, args, report);
  else
    reportEndToEnd(passes, report);
  report.metric("peak_rss_mb", peakRssMb(), "MB");
}

}  // namespace

void runPaperBatch(const Args& args, Report& report) {
  // The seed picks the Sobel threshold (a constant folded into the
  // circuit, so it shapes the DAG) and the simulated input data.
  Rng rng(deriveSeed(args.seed, 0xba7c4));
  uint64_t threshold = 96 + rng.below(65);
  uint64_t inputSeed = rng();
  std::vector<Config> configs;
  for (const char* kernel : {"Bitweaving", "Sobel", "AES"})
    for (bool optimized : {false, true})
      for (auto [dim, mra] : {std::pair{1024, 2}, std::pair{512, 4}}) {
        Config c;
        c.kernel = kernel;
        c.sobelThreshold = threshold;
        c.optimized = optimized;
        c.dim = dim;
        c.mra = mra;
        c.inputSeed = inputSeed;
        configs.push_back(c);
      }
  runBatch(configs, args, report);
}

void runFaultyGuarded(const Args& args, Report& report) {
  constexpr uint64_t kFaultMapsPerKernel = 8;
  std::vector<Config> configs;
  for (const char* kernel : {"Bitweaving", "Sobel"})
    for (uint64_t t = 0; t < kFaultMapsPerKernel; ++t) {
      Config c;
      c.kernel = kernel;
      c.tech = device::Technology::SttMram;
      c.dim = 512;
      c.stuckDensity = 0.01;
      c.weakDensity = 0.005;
      c.faultSeed = deriveSeed(args.seed, configs.size());
      c.spareRows = 16;
      c.guarded = true;
      c.laneWords = 8;
      c.inputSeed = deriveSeed(args.seed, 0x1a9e5 + configs.size());
      configs.push_back(c);
    }
  runBatch(configs, args, report);
}

}  // namespace perfbench
