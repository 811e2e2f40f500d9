// Monte-Carlo validation of the analytic reliability model: runs the
// Bitweaving kernel with fault injection (every scouting column-op flips
// each bulk lane with its decision-failure probability) and compares the
// observed end-to-end output corruption rate against the analytic
// P_app = 1 - prod(1 - P_DF_i).
//
// The analytic P_app is a union bound over *operation* failures; injected
// faults can be logically masked downstream (a flipped operand ANDed with
// zero leaves no trace), so the observed rate is expected at or below the
// analytic value while staying the same order of magnitude.
//
// Sampling layout: each trial simulates 64 * kLaneWords lockstep bulk
// lanes in one packed run, so kRuns trials yield the same Monte-Carlo
// sample count as the old one-word harness at 1/kLaneWords of the
// simulations (amortizing instruction dispatch, and injection draws scale
// with flips, not lanes — see support/rng.h sampleBernoulliBits).
//
// Seeding contract: trial `run` of config `c` uses
//   faultSeed = deriveSeed(kBaseSeed, c * kRuns + run)
// — a pure function of the trial index via splitmix64, never a shared RNG
// stream. Trials are therefore statistically independent AND the results
// are bit-identical under any execution order; the (config x trial) grid
// is flattened into one parallelMap over the shared thread pool.
//
// `--json <path>` additionally writes a machine-readable artifact with
// the per-config rates and the wall-clock of the Monte-Carlo phase.
#include <chrono>
#include <iostream>

#include "bench/common.h"
#include "bench/json.h"
#include "support/parallel.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

namespace {

struct Config {
  const char* name;
  device::Technology tech;
  bool lowered;
  int mra;
};

struct Prepared {
  ir::Graph graph;
  isa::TargetSpec target;
  mapping::Program program;
  double analyticPApp = 0;
};

struct TrialResult {
  int corrupted = 0;
  long injected = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = jsonPathArg(argc, argv);

  constexpr int kLaneWords = 40;  // 2560 lanes per packed trial
  constexpr int kRuns = 2;        // x2560 lanes = 5120 Monte-Carlo samples
  constexpr int kSamplesPerTrial = 64 * kLaneWords;
  constexpr uint64_t kBaseSeed = 0x5ee'd10c'2024ULL;

  const std::vector<Config> configs = {
      {"STT-MRAM native ops, mra2", device::Technology::SttMram, false, 2},
      {"STT-MRAM NAND-lowered, mra2", device::Technology::SttMram, true, 2},
      {"STT-MRAM NAND-lowered, mra4", device::Technology::SttMram, true, 4},
      {"ReRAM native ops, mra4", device::Technology::ReRam, false, 4}};

  // Phase 1: compile each configuration (and its fault-free analytic
  // run) concurrently.
  std::vector<Prepared> prepared =
      parallelMap(configs, [](const Config& c) {
        isa::TargetSpec target = isa::TargetSpec::square(
            512, device::TechnologyParams::forTechnology(c.tech), c.mra);
        mapping::FlowOptions flow;
        flow.nandLower = c.lowered;
        mapping::FlowResult compiled =
            mapping::compileFlow(makeWorkload("Bitweaving"), target, flow);
        Prepared p{std::move(compiled.graph), target,
                   std::move(compiled.compiled.program), 0.0};
        sim::SimOptions analytic;
        analytic.staticVerify = false;  // compileFlow verified the program
        p.analyticPApp =
            sim::simulate(p.graph, p.target, p.program, analytic).pApp;
        return p;
      });

  // Phase 2: one flat trial grid — configs x kRuns jobs, each with its
  // counter-derived fault seed. Timed as the benchmark's figure of merit.
  std::vector<size_t> trials(configs.size() * kRuns);
  for (size_t i = 0; i < trials.size(); ++i) trials[i] = i;
  auto mcStart = std::chrono::steady_clock::now();
  std::vector<TrialResult> outcomes =
      parallelMap(trials, [&](size_t trial) {
        const Prepared& p = prepared[trial / kRuns];
        sim::SimOptions opts;
        opts.laneWords = kLaneWords;
        opts.injectFaults = true;
        opts.faultSeed = deriveSeed(kBaseSeed, trial);
        // compileFlow verified the program; no trial re-verifies it.
        opts.staticVerify = false;
        auto r = sim::simulate(p.graph, p.target, p.program, opts);
        return TrialResult{static_cast<int>(r.corruptedLanes()),
                           r.injectedFaults};
      });
  double mcSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    mcStart)
          .count();

  Table t("Reliability model vs Monte-Carlo fault injection (Bitweaving)");
  t.setHeader({"config", "analytic P_app", "observed corruption",
               "avg injected faults/run", "MC samples"});
  Json rows = Json::array();
  for (size_t c = 0; c < configs.size(); ++c) {
    long corrupted = 0, injected = 0;
    for (int run = 0; run < kRuns; ++run) {
      const TrialResult& tr = outcomes[c * kRuns + static_cast<size_t>(run)];
      corrupted += tr.corrupted;
      injected += tr.injected;
    }
    double observed = static_cast<double>(corrupted) /
                      (static_cast<double>(kSamplesPerTrial) * kRuns);
    t.addRow({configs[c].name, Table::sci(prepared[c].analyticPApp, 2),
              Table::sci(observed, 2),
              Table::num(static_cast<double>(injected) / kRuns, 2),
              std::to_string(kSamplesPerTrial * kRuns)});
    rows.push(Json::object()
                  .set("config", configs[c].name)
                  .set("analytic_p_app", prepared[c].analyticPApp)
                  .set("observed_corruption", observed)
                  .set("corrupted_lanes", corrupted)
                  .set("injected_faults_per_run",
                       static_cast<double>(injected) / kRuns)
                  .set("mc_samples", kSamplesPerTrial * kRuns));
  }
  t.print(std::cout);

  std::cout << "\nMonte-Carlo phase: " << mcSeconds << " s for "
            << trials.size() << " packed trials ("
            << kSamplesPerTrial * kRuns << " samples per config, "
            << kLaneWords << " lane words)\n";
  std::cout << "\nExpected: observed corruption at or below the analytic "
               "P_app (logic masking) but within the same order of "
               "magnitude when P_app is large enough to sample.\n";

  if (!jsonPath.empty()) {
    Json doc = Json::object()
                   .set("schema_version", kBenchSchemaVersion)
                   .set("bench", "bench_reliability_mc")
                   .set("workload", "Bitweaving")
                   .set("lane_words", kLaneWords)
                   .set("runs_per_config", kRuns)
                   .set("mc_samples_per_config", kSamplesPerTrial * kRuns)
                   .set("mc_wall_seconds", mcSeconds)
                   .set("configs", std::move(rows));
    writeJson(jsonPath, doc);
  }
  return 0;
}
