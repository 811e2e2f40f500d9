// Ablation A2: contribution of the optimized flow's code-generation
// features — cross-cluster instruction merging (Sec. 3.3.3), lazy
// write-back with row-buffer operand chaining, and the clustering
// refinement pass — each toggled off individually against the full
// optimized configuration. The (workload x variant) grid runs
// concurrently; rows print in grid order.
#include <iostream>
#include <map>

#include "bench/common.h"
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
  mapping::CodegenOptions::WaveOrder waveOrder =
      mapping::CodegenOptions::WaveOrder::BLevel;
};

struct Cell {
  const char* workload;
  const Variant* variant;
};

}  // namespace

int main() {
  const Variant variants[] = {
      {"full opt", true, false, true, 2},
      {"no instruction merging", false, false, true, 2},
      {"eager write-back (no chaining)", true, true, true, 2},
      {"no buffer chaining", true, false, false, 2},
      {"no refinement", true, false, true, 0},
      {"t-level (ASAP) waves", true, false, true, 2,
       mapping::CodegenOptions::WaveOrder::TLevel},
  };

  std::vector<Cell> grid;
  for (const char* workload : kWorkloads)
    for (const Variant& v : variants) grid.push_back({workload, &v});

  // Workload graphs are shared read-only across the grid.
  std::map<std::string, ir::Graph> graphs;
  for (const char* workload : kWorkloads)
    graphs.emplace(workload, makeWorkload(workload));

  auto rows = parallelMap(grid, [&](const Cell& cell) {
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
    copts.waveOrder = v.waveOrder;
    auto compiled = mapping::compile(g, target, copts);
    sim::SimOptions sopts;
    sopts.staticVerify = false;  // compile verified the program
    auto r = sim::simulate(g, target, compiled.program, sopts);
    if (!r.verified)
      throw Error(strCat("verification failed: ", cell.workload, " / ",
                         v.name));
    return std::vector<std::string>{
        cell.workload, v.name,
        std::to_string(compiled.program.instructions.size()),
        std::to_string(compiled.program.stats.spillWrites),
        std::to_string(compiled.program.stats.chainedOperands),
        std::to_string(compiled.program.stats.mergedInstructions),
        Table::num(r.latencyUs(), 2), Table::num(r.energyUj(), 2)};
  });

  Table t("Ablation A2 — optimized-flow features (512x512 ReRAM)");
  t.setHeader({"Benchmark", "variant", "instructions", "spill writes",
               "chained", "merged", "latency (us)", "energy (uJ)"});
  for (size_t i = 0; i < rows.size(); ++i) {
    t.addRow(rows[i]);
    if ((i + 1) % std::size(variants) == 0) t.addSeparator();
  }
  t.print(std::cout);
  return 0;
}
