// Reproduces paper Fig. 6: reliability of the Bitweaving kernel as the
// allowed share of multi-row activations (> 2 operands) grows — the
// latency / P_app trade-off curve, for
//   (a) ReRAM with native scouting ops, and
//   (b) STT-MRAM with the NAND-based implementation of XOR and OR.
// Each series sweeps the node-substitution budget (the fraction of merge
// opportunities applied); the annotation column is the resulting share of
// operations with more than two operands, as annotated on the paper's
// data points. The naive flow picks merges statically (near-linear
// curve); the optimized flow's choices interact with mapping and
// instruction merging (irregular curve, better P_app at equal latency).
//
// Both figures' 20 configurations run concurrently through one sweep.
// `--json <path>` also writes each configuration's modeled latency,
// energy and P_app; this is the only bench that runs below the full
// merge budget, where the merge order changes programs, so CI gates it
// exactly against BENCH_fig6.json.
#include <iostream>

#include "bench/json.h"
#include "bench/sweep.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

int main(int argc, char** argv) {
  std::string jsonPath = jsonPathArg(argc, argv);
  const std::tuple<device::Technology, bool, const char*> figures[] = {
      {device::Technology::ReRam, false,
       "Fig. 6(a) — ReRAM, native scouting ops"},
      {device::Technology::SttMram, true,
       "Fig. 6(b) — STT-MRAM, NAND-based XOR/OR"}};
  const double fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::vector<SweepJob> jobs;
  for (auto [tech, lowered, title] : figures)
    for (auto strategy :
         {mapping::Strategy::Naive, mapping::Strategy::Optimized})
      for (double fraction : fractions) {
        RunConfig cfg;
        cfg.tech = tech;
        cfg.arrayDim = 512;
        cfg.flow.strategy = strategy;
        cfg.mra = fraction == 0.0 ? 2 : 4;
        cfg.flow.fraction = fraction;
        cfg.flow.nandLower = lowered;
        jobs.push_back({"Bitweaving", cfg});
      }
  std::vector<RunResult> results = runSweep(jobs);

  Json configs = Json::array();
  size_t idx = 0;
  for (auto [tech, lowered, title] : figures) {
    Table t(title);
    t.setHeader({"mapping", "merge budget", "MRA>2 ops", "latency (us)",
                 "P_app", "CIM ops"});
    for (auto strategy :
         {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
      for (double fraction : fractions) {
        const RunResult& r = results[idx++];
        const char* mappingName =
            strategy == mapping::Strategy::Naive ? "naive" : "opt";
        configs.push(Json::object()
                         .set("workload", "Bitweaving")
                         .set("tech", technologyName(tech))
                         .set("array_dim", 512)
                         .set("strategy", mappingName)
                         .set("mra", fraction == 0.0 ? 2 : 4)
                         .set("fraction", fraction)
                         .set("latency_ns", r.sim.latencyNs)
                         .set("energy_pj", r.sim.energyPj)
                         .set("p_app", r.sim.pApp));
        t.addRow({mappingName,
                  Table::num(100 * fraction, 0) + "%",
                  Table::num(100 * r.substitution.wideFraction(), 1) + "%",
                  Table::num(r.sim.latencyUs(), 2),
                  Table::sci(r.sim.pApp, 2),
                  std::to_string(r.sim.cimColumnOps)});
      }
      t.addSeparator();
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "Expected shape: latency falls and P_app rises with the MRA "
               "budget; ReRAM stays highly reliable (P_app well below "
               "1e-4-ish) while STT-MRAM, even NAND-lowered, trades "
               "noticeably more reliability; the optimized mapping reaches "
               "lower latency at comparable P_app.\n";

  if (!jsonPath.empty()) {
    Json root = Json::object();
    root.set("schema_version", kBenchSchemaVersion)
        .set("benchmark", "bench_fig6: Fig. 6 reproduction (deterministic)")
        .set("configs", std::move(configs));
    writeJson(jsonPath, root);
  }
  return 0;
}
