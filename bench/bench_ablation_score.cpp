// Ablation A1: sensitivity of the Eq. 1 clustering score
//   score(d, C) = beta * |C| + alpha * sum rho(d, q)
// to its constants. Sweeps alpha (dependency affinity) and beta (size
// penalty) and reports crossing dependencies and simulated latency for
// the optimized mapping, justifying the defaults (alpha = 1, beta = -0.5).
// The (workload x alpha x beta) grid runs concurrently in grid order.
#include <iostream>
#include <map>

#include "bench/common.h"
#include "mapping/clustering.h"
#include "support/parallel.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

namespace {

struct Cell {
  const char* workload;
  double alpha;
  double beta;
};

}  // namespace

int main() {
  const char* workloads[] = {"Bitweaving", "Sobel"};
  const double alphas[] = {0.0, 0.5, 1.0, 2.0};
  const double betas[] = {-2.0, -0.5, 0.0, 0.5};

  std::vector<Cell> grid;
  for (const char* workload : workloads)
    for (double alpha : alphas)
      for (double beta : betas) grid.push_back({workload, alpha, beta});

  std::map<std::string, ir::Graph> graphs;
  for (const char* workload : workloads)
    graphs.emplace(workload, makeWorkload(workload));

  auto rows = parallelMap(grid, [&](const Cell& cell) {
    const ir::Graph& g = graphs.at(cell.workload);
    isa::TargetSpec target =
        isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 2);
    mapping::CompileOptions copts;
    copts.strategy = mapping::Strategy::Optimized;
    copts.optimizer.alpha = cell.alpha;
    copts.optimizer.beta = cell.beta;
    auto compiled = mapping::compile(g, target, copts);
    sim::SimOptions sopts;
    sopts.staticVerify = false;  // compile verified the program
    auto r = sim::simulate(g, target, compiled.program, sopts);
    if (!r.verified)
      throw Error(strCat("verification failed: ", cell.workload, " alpha=",
                         cell.alpha, " beta=", cell.beta));
    return std::vector<std::string>{
        cell.workload, Table::num(cell.alpha, 1), Table::num(cell.beta, 1),
        std::to_string(compiled.clustering.clusters.size()),
        std::to_string(compiled.clustering.crossClusterEdges),
        std::to_string(compiled.program.instructions.size()),
        Table::num(r.latencyUs(), 2)};
  });

  Table t("Ablation A1 — Eq. 1 constants (opt mapping, 512x512 ReRAM)");
  t.setHeader({"Benchmark", "alpha", "beta", "clusters", "cross edges",
               "instructions", "latency (us)"});
  const size_t perWorkload = std::size(alphas) * std::size(betas);
  for (size_t i = 0; i < rows.size(); ++i) {
    t.addRow(rows[i]);
    if ((i + 1) % perWorkload == 0) t.addSeparator();
  }
  t.print(std::cout);
  return 0;
}
