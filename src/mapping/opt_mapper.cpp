#include "mapping/opt_mapper.h"

#include <algorithm>
#include <numeric>

#include "support/trace.h"

namespace sherlock::mapping {

OptMapping mapOptimized(const ir::Graph& g, const isa::TargetSpec& target,
                        const OptMapperOptions& options,
                        const FaultPolicy& faults) {
  const int numArrays = std::max(1, target.numArrays);

  // Columns a cluster may land on, grouped per array. With faults,
  // columns too damaged to hold even a minimal cluster are skipped and
  // the cluster budget is sized to the worst surviving column so any
  // cluster fits any assigned column. maxColumnsPerArray caps how many
  // of each array's columns the mapper occupies.
  std::vector<std::vector<int>> arrayColumns(
      static_cast<size_t>(numArrays));
  int planningRows = 0;
  for (int arrayId = 0; arrayId < target.numArrays; ++arrayId) {
    auto& cols = arrayColumns[static_cast<size_t>(arrayId)];
    std::vector<int> usable = usablePlanningCells(target, faults, arrayId);
    for (int col = 0; col < target.cols(); ++col) {
      if (options.maxColumnsPerArray > 0 &&
          static_cast<int>(cols.size()) >= options.maxColumnsPerArray)
        break;
      int u = usable[static_cast<size_t>(col)];
      if (faults.map && u < 2) continue;
      planningRows = planningRows == 0 ? u : std::min(planningRows, u);
      cols.push_back(arrayId * target.cols() + col);
    }
  }
  std::vector<int> budget(static_cast<size_t>(numArrays), 0);
  for (int a = 0; a < numArrays; ++a)
    budget[static_cast<size_t>(a)] =
        static_cast<int>(arrayColumns[static_cast<size_t>(a)].size());
  long usableTotal = std::accumulate(budget.begin(), budget.end(), 0L);
  if (usableTotal == 0)
    throw MappingError(
        "fault map leaves no usable columns for optimized mapping");

  const int capacity = std::max(
      2, static_cast<int>(planningRows * options.capacityFraction));

  ClusteringOptions copt;
  copt.columnCapacity = capacity;
  // k = number of columns the DAG's operands require (Algorithm 2 line 3).
  copt.targetClusters = static_cast<int>(
      (g.valueCount() + static_cast<size_t>(capacity) - 1) /
      static_cast<size_t>(capacity));
  copt.maxClusters = static_cast<int>(usableTotal);
  copt.alpha = options.alpha;
  copt.beta = options.beta;
  copt.seed = options.seed;
  copt.refinePasses = options.refinePasses;

  OptMapping out;
  {
    trace::Span span("mapping", "cluster");
    out.clustering = findClusters(g, copt);
  }
  const auto& clusters = out.clustering.clusters;

  // Shard the clustered DAG across the mesh (single-array fallback when
  // one array has room for everything).
  PartitionOptions popt;
  popt.arrayColumnBudget = budget;
  popt.refinePasses = options.refinePasses;
  {
    trace::Span span("mapping", "partition");
    out.partition = partitionClusters(g, out.clustering, target, popt);
  }

  PlacementPlan& plan = out.plan;
  plan.opLocation.resize(g.numNodes());
  plan.leafColumns.resize(g.numNodes());
  plan.clusterCount = static_cast<int>(clusters.size());
  plan.usedColumns = static_cast<int>(clusters.size());

  // Hand each cluster the next free column of its assigned array.
  std::vector<size_t> cursor(static_cast<size_t>(numArrays), 0);
  std::vector<ColumnRef> clusterColumn(clusters.size());
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    int arrayId = out.partition.arrayOf[ci];
    int globalCol = arrayColumns[static_cast<size_t>(
        arrayId)][cursor[static_cast<size_t>(arrayId)]++];
    clusterColumn[ci] = ColumnRef{arrayId, globalCol % target.cols()};
  }

  for (size_t ci = 0; ci < clusters.size(); ++ci)
    for (ir::NodeId node : clusters[ci].nodes)
      plan.opLocation[static_cast<size_t>(node)] = clusterColumn[ci];

  // Pre-load each leaf operand into every consuming cluster's column.
  for (ir::NodeId i = g.firstId(); i < g.endId(); ++i) {
    const ir::Node& n = g.node(i);
    if (n.isOp()) continue;
    std::vector<ColumnRef> cols;
    for (ir::NodeId user : n.users) {
      ColumnRef c = plan.opLocation[static_cast<size_t>(user)];
      if (std::find(cols.begin(), cols.end(), c) == cols.end())
        cols.push_back(c);
    }
    if (cols.empty() && std::find(g.outputs().begin(), g.outputs().end(),
                                  i) != g.outputs().end()) {
      // Unconsumed output leaf: park it on the first usable column.
      if (!clusterColumn.empty()) {
        cols.push_back(clusterColumn[0]);
      } else {
        for (const auto& ac : arrayColumns)
          if (!ac.empty()) {
            cols.push_back(
                ColumnRef{ac[0] / target.cols(), ac[0] % target.cols()});
            break;
          }
      }
    }
    std::sort(cols.begin(), cols.end());
    plan.leafColumns[static_cast<size_t>(i)] = std::move(cols);
  }

  return out;
}

}  // namespace sherlock::mapping
