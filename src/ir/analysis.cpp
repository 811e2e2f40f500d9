#include "ir/analysis.h"

#include <algorithm>

namespace sherlock::ir {

std::vector<int> bLevels(const Graph& g) {
  std::vector<int> level(g.numNodes(), 0);
  // Users always have larger ids, so a reverse id scan sees all users of a
  // node before the node itself.
  for (NodeId i = g.endId(); i-- > g.firstId();) {
    const Node& n = g.node(i);
    int best = 0;
    for (NodeId u : n.users)
      best = std::max(best, level[static_cast<size_t>(u)]);
    level[static_cast<size_t>(i)] = best + (n.isOp() ? 1 : 0);
  }
  return level;
}

int criticalPathLength(const Graph& g) {
  auto levels = bLevels(g);
  int best = 0;
  for (int l : levels) best = std::max(best, l);
  return best;
}

std::vector<NodeId> bLevelSortedOps(const Graph& g) {
  auto levels = bLevels(g);
  std::vector<NodeId> ops = g.opNodes();
  std::stable_sort(ops.begin(), ops.end(), [&](NodeId a, NodeId b) {
    return levels[static_cast<size_t>(a)] > levels[static_cast<size_t>(b)];
  });
  return ops;
}

std::vector<int> tLevels(const Graph& g) {
  std::vector<int> level(g.numNodes(), 0);
  // Operands always have smaller ids, so a forward scan sees producers
  // before consumers.
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    int best = 0;
    for (NodeId o : n.operands)
      best = std::max(best, level[static_cast<size_t>(o)]);
    level[static_cast<size_t>(i)] = best + (n.isOp() ? 1 : 0);
  }
  return level;
}

}  // namespace sherlock::ir
