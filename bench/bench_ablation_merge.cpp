// Ablation A2: contribution of the optimized flow's code-generation
// features — cross-cluster instruction merging (Sec. 3.3.3), lazy
// write-back with row-buffer operand chaining, and the clustering
// refinement pass — each toggled off individually against the full
// optimized configuration, plus each wave schedule run on its own
// (full opt runs the one with the lower round floor). The (workload x
// variant) grid runs concurrently; rows print in grid order. With
// --json, each cell is one config keyed by its variant, so
// compare_bench.py gates its modeled latency and energy against
// BENCH_ablation_merge.json.
#include <iostream>
#include <map>

#include "bench/common.h"
#include "bench/json.h"
#include "mapping/schedule.h"
#include "support/parallel.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

namespace {

struct Variant {
  const char* name;
  bool merge;
  bool eager;       // eager write-back (disables chaining)
  bool chaining;    // target's row-buffer chaining
  int refinePasses;
  /// A wave producer to run instead of the optimized flow's pick.
  mapping::Schedule (*schedule)(const ir::Graph&,
                                const mapping::PlacementPlan&) = nullptr;
};

struct Cell {
  const char* workload;
  const Variant* variant;
};

struct CellResult {
  mapping::CodegenStats stats;
  long instructions = 0;
  sim::SimResult sim;
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = jsonPathArg(argc, argv);
  const Variant variants[] = {
      {"full opt", true, false, true, 2},
      {"no instruction merging", false, false, true, 2},
      {"eager write-back (no chaining)", true, true, true, 2},
      {"no buffer chaining", true, false, false, 2},
      {"no refinement", true, false, true, 0},
      {"b-level waves", true, false, true, 2, mapping::bLevelWaves},
      {"t-level (ASAP) waves", true, false, true, 2, mapping::tLevelWaves},
  };

  std::vector<Cell> grid;
  for (const char* workload : kWorkloads)
    for (const Variant& v : variants) grid.push_back({workload, &v});

  // Workload graphs are shared read-only across the grid.
  std::map<std::string, ir::Graph> graphs;
  for (const char* workload : kWorkloads)
    graphs.emplace(workload, makeWorkload(workload));

  auto results = parallelMap(grid, [&](const Cell& cell) {
    const Variant& v = *cell.variant;
    const ir::Graph& g = graphs.at(cell.workload);
    isa::TargetSpec target =
        isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 2);
    target.bufferChaining = v.chaining;
    mapping::CompileOptions copts;
    copts.strategy = mapping::Strategy::Optimized;
    copts.mergeInstructions = v.merge;
    copts.eagerWriteback = v.eager;
    copts.optimizer.refinePasses = v.refinePasses;
    mapping::Program program;
    sim::SimOptions sopts;
    if (v.schedule) {
      // The optimized flow's mapping and codegen, on the given schedule;
      // the simulator's static pass verifies the program.
      mapping::PlacementPlan plan =
          mapping::mapOptimized(g, target, copts.optimizer).plan;
      program = mapping::generateCode(g, target, plan, v.schedule(g, plan));
    } else {
      program = mapping::compile(g, target, copts).program;
      sopts.staticVerify = false;  // compile verified the program
    }
    auto r = sim::simulate(g, target, program, sopts);
    if (!r.verified)
      throw Error(strCat("verification failed: ", cell.workload, " / ",
                         v.name));
    return CellResult{program.stats,
                      static_cast<long>(program.instructions.size()),
                      std::move(r)};
  });

  Table t("Ablation A2 — optimized-flow features (512x512 ReRAM)");
  t.setHeader({"Benchmark", "variant", "instructions", "spill writes",
               "chained", "merged", "latency (us)", "energy (uJ)"});
  Json configs = Json::array();
  for (size_t i = 0; i < results.size(); ++i) {
    const Cell& cell = grid[i];
    const CellResult& r = results[i];
    t.addRow({cell.workload, cell.variant->name,
              std::to_string(r.instructions),
              std::to_string(r.stats.spillWrites),
              std::to_string(r.stats.chainedOperands),
              std::to_string(r.stats.mergedInstructions),
              Table::num(r.sim.latencyUs(), 2),
              Table::num(r.sim.energyUj(), 2)});
    if ((i + 1) % std::size(variants) == 0) t.addSeparator();
    Json c = Json::object();
    c.set("workload", cell.workload)
        .set("tech", "ReRAM")
        .set("array_dim", 512)
        .set("strategy", "opt")
        .set("mra", 2)
        .set("variant", cell.variant->name)
        .set("latency_ns", r.sim.latencyNs)
        .set("energy_pj", r.sim.energyPj)
        .set("instructions", r.instructions)
        .set("spill_writes", r.stats.spillWrites)
        .set("shifts", r.stats.shifts)
        .set("chained_operands", r.stats.chainedOperands)
        .set("merged_instructions", r.stats.mergedInstructions);
    configs.push(std::move(c));
  }
  t.print(std::cout);

  if (!jsonPath.empty()) {
    Json root = Json::object();
    root.set("schema_version", kBenchSchemaVersion)
        .set("title", "Ablation A2 — optimized-flow features")
        .set("benchmark",
             "bench_ablation_merge: each optimized-flow feature toggled "
             "off against full opt (512x512 ReRAM, MRA 2)")
        .set("metric",
             "analytic latency_ns and energy_pj per (workload, variant) "
             "config (deterministic)")
        .set("configs", std::move(configs));
    writeJson(jsonPath, root);
  }
  return 0;
}
