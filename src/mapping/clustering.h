// DAG op-node clustering (paper Algorithm 2, FindClusters): groups
// operation nodes into clusters that each fit one CIM column, minimizing
// dependencies that cross cluster boundaries (each crossing dependency
// costs a read/shift/write movement at code generation time).
//
// Assignment of a node with already-clustered predecessors follows the
// paper's Cases 1-5, all captured by the score of Eq. 1:
//
//   score(d, C) = beta * |C| + alpha * sum_{q in pred(d) /\ C} rho(d, q)
//
// with beta < 0 (prefer smaller clusters, Case 5) and rho(d, q) the
// affinity of d to predecessor q. The paper describes rho as derived from
// the priority difference such that *lower* differences score *higher*
// (Case 3: the node lies on the critical path of the nearer cluster) and
// more in-cluster predecessors score higher (Case 4); we therefore use
// rho(d, q) = 1 / (blevel(q) - blevel(d)), the inverse priority gap, which
// realizes exactly that ordering.
#pragma once

#include <vector>

#include "ir/graph.h"

namespace sherlock::mapping {

struct ClusteringOptions {
  /// Cells one column offers; bounds C_maxSize through the in/out-degrees
  /// of the member nodes (every distinct operand and result of the cluster
  /// occupies a cell).
  int columnCapacity = 0;

  /// Target number of clusters k (columns the DAG's operands require).
  /// MergeClusters only merges *dependent* cluster pairs toward this
  /// target — merging independent clusters would destroy column-level
  /// parallelism without saving any movement.
  int targetClusters = 0;

  /// Hard cap (columns physically available); 0 = unlimited. Above the
  /// cap, even independent clusters are force-merged.
  int maxClusters = 0;

  /// Local refinement sweeps after merging: each op node migrates to the
  /// cluster holding most of its DAG neighbors when that reduces crossing
  /// dependencies and fits the capacity (a Kernighan-Lin-style cleanup of
  /// the greedy assignment).
  int refinePasses = 2;
};

struct Cluster {
  std::vector<ir::NodeId> nodes;  ///< op nodes, in assignment order
  /// Distinct values the column holds, ascending.
  std::vector<ir::NodeId> cells;
  int size() const { return static_cast<int>(nodes.size()); }
  int cellCount() const { return static_cast<int>(cells.size()); }
};

struct ClusteringResult {
  std::vector<Cluster> clusters;
  /// cluster index of each op node (indexed by NodeId; -1 for non-ops).
  std::vector<int> clusterOf;
  /// Dependencies crossing cluster boundaries (movement proxies).
  long crossClusterEdges = 0;
};

/// Runs FindClusters followed by the greedy MergeClusters step.
ClusteringResult findClusters(const ir::Graph& g,
                              const ClusteringOptions& options);

/// The MergeClusters step alone (exposed for testing): greedily merges the
/// most inter-dependent feasible pairs down to targetClusters, then
/// force-merges the smallest pairs down to maxClusters. Updates `clusters`
/// and `clusterOf` in place.
void mergeClusters(const ir::Graph& g, const ClusteringOptions& options,
                   std::vector<Cluster>& clusters,
                   std::vector<int>& clusterOf);

/// The local-refinement step alone (exposed for testing): see
/// ClusteringOptions::refinePasses. Updates `clusters` and `clusterOf` in
/// place; emptied clusters are removed.
void refineClusters(const ir::Graph& g, const ClusteringOptions& options,
                    std::vector<Cluster>& clusters,
                    std::vector<int>& clusterOf);

/// Counts operand edges between op nodes in different clusters.
long countCrossClusterEdges(const ir::Graph& g,
                            const std::vector<int>& clusterOf);

}  // namespace sherlock::mapping
