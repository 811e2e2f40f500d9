// Graph analyses used by the mappers: b-level priorities (Kwok & Ahmad)
// and their ASAP dual, the t-level.
#pragma once

#include <vector>

#include "ir/graph.h"

namespace sherlock::ir {

/// Computes the b-level of every node: the number of operation nodes on the
/// longest directed path from the node to any exit node, counting the node
/// itself when it is an operation. Operand (leaf) nodes and edges have zero
/// weight, matching the paper's DAG weighting. Leaf nodes inherit the
/// maximum b-level of their users.
std::vector<int> bLevels(const Graph& g);

/// Length of the critical path in operation nodes (max b-level).
int criticalPathLength(const Graph& g);

/// Op node ids sorted by descending b-level; ties broken by ascending node
/// id to keep the order deterministic (the order the mappers consume).
std::vector<NodeId> bLevelSortedOps(const Graph& g);

/// Computes the t-level of every node: the number of operation nodes on
/// the longest directed path from any entry to the node, counting the
/// node itself when it is an operation (ASAP depth; the dual of bLevels).
std::vector<int> tLevels(const Graph& g);

}  // namespace sherlock::ir
