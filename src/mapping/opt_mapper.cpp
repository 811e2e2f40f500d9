#include "mapping/opt_mapper.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "ir/analysis.h"
#include "support/trace.h"

namespace sherlock::mapping {

namespace {

// Fraction of a column's rows the clusterer may budget. The remainder
// absorbs the cells codegen allocates at run time: movement targets and
// flushed row-buffer values.
constexpr double kCapacityFraction = 0.85;

// Places the clusters of a kernel no single array holds, keeping few
// operand edges on the bus: every edge whose producer and consumer
// clusters land on different arrays costs the code generator an XFER.
// A greedy pass places clusters in t-level order (producers before most
// of their consumers) on the array with the fewest edges to placed
// neighbors elsewhere, ties going to the lightest-loaded, lowest-id
// array; Kernighan-Lin-style sweeps then move any cluster that has
// strictly fewer such edges on another array with room. `budget` holds
// each array's usable column count. Returns the array of each cluster.
std::vector<int> spillAcrossArrays(const ir::Graph& g,
                                   const ClusteringResult& clustering,
                                   const std::vector<int>& budget,
                                   int refinePasses) {
  const size_t nClusters = clustering.clusters.size();
  const int numArrays = static_cast<int>(budget.size());

  // Operand edges between op nodes of two clusters, counted both ways:
  // separating the pair costs the same whatever the edge direction.
  std::vector<std::map<int, long>> affinity(nClusters);
  for (ir::NodeId v = g.firstId(); v < g.endId(); ++v) {
    const ir::Node& n = g.node(v);
    if (!n.isOp()) continue;
    int cv = clustering.clusterOf[static_cast<size_t>(v)];
    for (ir::NodeId user : n.users) {
      int cu = clustering.clusterOf[static_cast<size_t>(user)];
      if (cu == cv) continue;
      affinity[static_cast<size_t>(cv)][cu]++;
      affinity[static_cast<size_t>(cu)][cv]++;
    }
  }

  std::vector<int> arrayOf(nClusters, -1);
  std::vector<int> load(static_cast<size_t>(numArrays), 0);
  // Edges from cluster c to placed neighbors off `array`.
  auto crossing = [&](size_t c, int array) {
    long edges = 0;
    for (const auto& [other, weight] : affinity[c]) {
      int a = arrayOf[static_cast<size_t>(other)];
      if (a >= 0 && a != array) edges += weight;
    }
    return edges;
  };
  auto hasRoom = [&](int a) {
    return load[static_cast<size_t>(a)] < budget[static_cast<size_t>(a)];
  };

  std::vector<int> tl = ir::tLevels(g);
  std::vector<double> priority(nClusters, 0.0);
  for (size_t c = 0; c < nClusters; ++c) {
    const auto& nodes = clustering.clusters[c].nodes;
    long sum = 0;
    for (ir::NodeId v : nodes) sum += tl[static_cast<size_t>(v)];
    if (!nodes.empty())
      priority[c] =
          static_cast<double>(sum) / static_cast<double>(nodes.size());
  }
  std::vector<size_t> order(nClusters);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return priority[a] < priority[b];
  });

  for (size_t c : order) {
    int best = -1;
    long bestEdges = 0;
    for (int a = 0; a < numArrays; ++a) {
      if (!hasRoom(a)) continue;
      long edges = crossing(c, a);
      if (best < 0 || edges < bestEdges ||
          (edges == bestEdges &&
           load[static_cast<size_t>(a)] < load[static_cast<size_t>(best)])) {
        best = a;
        bestEdges = edges;
      }
    }
    arrayOf[c] = best;
    load[static_cast<size_t>(best)]++;
  }

  for (int pass = 0; pass < refinePasses; ++pass) {
    bool moved = false;
    for (size_t c = 0; c < nClusters; ++c) {
      int cur = arrayOf[c];
      int best = cur;
      long bestEdges = crossing(c, cur);
      for (int a = 0; a < numArrays; ++a) {
        if (a == cur || !hasRoom(a)) continue;
        long edges = crossing(c, a);
        if (edges < bestEdges) {
          best = a;
          bestEdges = edges;
        }
      }
      if (best != cur) {
        arrayOf[c] = best;
        load[static_cast<size_t>(cur)]--;
        load[static_cast<size_t>(best)]++;
        moved = true;
      }
    }
    if (!moved) break;
  }
  return arrayOf;
}

}  // namespace

OptMapping mapOptimized(const ir::Graph& g, const isa::TargetSpec& target,
                        const OptMapperOptions& options,
                        const FaultPolicy& faults) {
  const int numArrays = std::max(1, target.numArrays);

  // Columns a cluster may land on, grouped per array. With faults,
  // columns too damaged to hold even a minimal cluster are skipped and
  // the cluster budget is sized to the worst surviving column so any
  // cluster fits any assigned column. maxColumnsPerArray caps how many
  // of each array's columns the mapper occupies.
  std::vector<std::vector<ColumnRef>> arrayColumns(
      static_cast<size_t>(numArrays));
  int planningRows = 0;
  size_t usableTotal = 0;
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
      cols.push_back(ColumnRef{arrayId, col});
    }
    usableTotal += cols.size();
  }
  if (usableTotal == 0)
    throw MappingError(
        "fault map leaves no usable columns for optimized mapping");

  const int capacity = std::max(
      2, static_cast<int>(planningRows * kCapacityFraction));

  ClusteringOptions copt;
  copt.columnCapacity = capacity;
  // k = number of columns the DAG's operands require (Algorithm 2 line 3).
  copt.targetClusters = static_cast<int>(
      (g.valueCount() + static_cast<size_t>(capacity) - 1) /
      static_cast<size_t>(capacity));
  copt.maxClusters = static_cast<int>(usableTotal);
  copt.refinePasses = options.refinePasses;

  OptMapping out;
  {
    trace::Span span("mapping", "cluster");
    out.clustering = findClusters(g, copt);
  }
  const auto& clusters = out.clustering.clusters;

  PlacementPlan& plan = out.plan;
  plan.opLocation.resize(g.numNodes());
  plan.leafColumns.resize(g.numNodes());
  plan.clusterCount = static_cast<int>(clusters.size());
  plan.usedColumns = static_cast<int>(clusters.size());

  // Every cluster goes on the first array with a usable column for each,
  // so no value crosses the bus; a kernel no array holds spills. The
  // clusterer's maxClusters keeps the cluster count within usableTotal.
  std::vector<int> budget;
  for (const auto& cols : arrayColumns)
    budget.push_back(static_cast<int>(cols.size()));
  std::vector<int> arrayOf;
  auto first = std::find_if(budget.begin(), budget.end(), [&](int cols) {
    return static_cast<size_t>(cols) >= clusters.size();
  });
  if (first != budget.end())
    arrayOf.assign(clusters.size(),
                   static_cast<int>(first - budget.begin()));
  else
    arrayOf = spillAcrossArrays(g, out.clustering, budget,
                                options.refinePasses);

  // Hand each cluster the next usable column of its array.
  std::vector<size_t> cursor(budget.size(), 0);
  std::vector<ColumnRef> clusterColumn(clusters.size());
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    auto a = static_cast<size_t>(arrayOf[ci]);
    clusterColumn[ci] = arrayColumns[a][cursor[a]++];
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
            cols.push_back(ac[0]);
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
