#include "mapping/clustering.h"

#include <algorithm>
#include <limits>
#include <map>

#include "ir/analysis.h"

namespace sherlock::mapping {

using ir::Graph;
using ir::NodeId;

namespace {

/// Cells the cluster would occupy if `node` joined: current cells plus the
/// node's operands and its own result.
int cellsIfAdded(const Cluster& c, const Graph& g, NodeId node) {
  int extra = c.cells.contains(node) ? 0 : 1;
  for (NodeId o : g.node(node).operands)
    if (!c.cells.contains(o)) ++extra;
  return c.cellCount() + extra;
}

void addToCluster(Cluster& c, const Graph& g, NodeId node,
                  std::vector<int>& clusterOf, int clusterIdx) {
  c.nodes.push_back(node);
  c.cells.insert(node);
  for (NodeId o : g.node(node).operands) c.cells.insert(o);
  clusterOf[static_cast<size_t>(node)] = clusterIdx;
}

}  // namespace

long countCrossClusterEdges(const Graph& g,
                            const std::vector<int>& clusterOf) {
  long edges = 0;
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const ir::Node& n = g.node(i);
    if (!n.isOp()) continue;
    for (NodeId o : n.operands) {
      if (!g.node(o).isOp()) continue;
      if (clusterOf[static_cast<size_t>(o)] !=
          clusterOf[static_cast<size_t>(i)])
        ++edges;
    }
  }
  return edges;
}

ClusteringResult findClusters(const Graph& g,
                              const ClusteringOptions& options) {
  checkArg(options.columnCapacity > 0, "columnCapacity must be positive");
  auto levels = ir::bLevels(g);
  Rng rng(options.seed);

  ClusteringResult result;
  result.clusterOf.assign(g.numNodes(), -1);
  auto& clusters = result.clusters;
  auto& clusterOf = result.clusterOf;

  auto fits = [&](const Cluster& c, NodeId node) {
    return cellsIfAdded(c, g, node) <= options.columnCapacity;
  };
  auto newCluster = [&](NodeId node) {
    clusters.emplace_back();
    addToCluster(clusters.back(), g, node, clusterOf,
                 static_cast<int>(clusters.size()) - 1);
  };

  for (NodeId node : ir::bLevelSortedOps(g)) {
    // Distinct clusters of the already-assigned op predecessors.
    std::vector<int> predClusters;
    std::vector<NodeId> opPreds;
    for (NodeId o : g.node(node).operands) {
      if (!g.node(o).isOp()) continue;
      opPreds.push_back(o);
      int c = clusterOf[static_cast<size_t>(o)];
      SHERLOCK_ASSERT(c >= 0, "predecessor ", o, " not yet clustered");
      if (std::find(predClusters.begin(), predClusters.end(), c) ==
          predClusters.end())
        predClusters.push_back(c);
    }

    if (predClusters.empty()) {
      // No predecessors: open a new cluster (Algorithm 2 line 23).
      newCluster(node);
      continue;
    }

    if (predClusters.size() == 1) {
      // Case 1: single predecessor cluster; join it if it still fits.
      Cluster& c = clusters[static_cast<size_t>(predClusters[0])];
      if (fits(c, node))
        addToCluster(c, g, node, clusterOf, predClusters[0]);
      else
        newCluster(node);
      continue;
    }

    // Case 2: clusters with identical properties (same size, identical
    // predecessor priorities) are merged wholesale.
    bool sameSize = true;
    for (int ci : predClusters)
      sameSize &= clusters[static_cast<size_t>(ci)].size() ==
                  clusters[static_cast<size_t>(predClusters[0])].size();
    bool samePriorities = true;
    for (NodeId q : opPreds)
      samePriorities &= levels[static_cast<size_t>(q)] ==
                        levels[static_cast<size_t>(opPreds[0])];
    if (sameSize && samePriorities) {
      // Check capacity of the union plus the node.
      std::set<NodeId> unionCells;
      for (int ci : predClusters) {
        const auto& cc = clusters[static_cast<size_t>(ci)].cells;
        unionCells.insert(cc.begin(), cc.end());
      }
      unionCells.insert(node);
      for (NodeId o : g.node(node).operands) unionCells.insert(o);
      if (static_cast<int>(unionCells.size()) <= options.columnCapacity) {
        // Merge everything into the first predecessor's cluster.
        int dst = predClusters[0];
        Cluster& cd = clusters[static_cast<size_t>(dst)];
        for (size_t k = 1; k < predClusters.size(); ++k) {
          Cluster& cs = clusters[static_cast<size_t>(predClusters[k])];
          for (NodeId nMoved : cs.nodes) {
            cd.nodes.push_back(nMoved);
            clusterOf[static_cast<size_t>(nMoved)] = dst;
          }
          cd.cells.insert(cs.cells.begin(), cs.cells.end());
          cs.nodes.clear();
          cs.cells.clear();
        }
        addToCluster(cd, g, node, clusterOf, dst);
      } else {
        // Random assignment among the predecessors' clusters that fit.
        std::vector<int> feasible;
        for (int ci : predClusters)
          if (fits(clusters[static_cast<size_t>(ci)], node))
            feasible.push_back(ci);
        if (feasible.empty()) {
          newCluster(node);
        } else {
          int pick = feasible[static_cast<size_t>(
              rng.below(feasible.size()))];
          addToCluster(clusters[static_cast<size_t>(pick)], g, node,
                       clusterOf, pick);
        }
      }
      continue;
    }

    // Cases 3-5: Eq. 1 scoring over the predecessors' clusters.
    int best = -1;
    double bestScore = -std::numeric_limits<double>::infinity();
    for (int ci : predClusters) {
      Cluster& c = clusters[static_cast<size_t>(ci)];
      if (!fits(c, node)) continue;
      double affinity = 0.0;
      for (NodeId q : opPreds) {
        if (clusterOf[static_cast<size_t>(q)] != ci) continue;
        int gap = levels[static_cast<size_t>(q)] -
                  levels[static_cast<size_t>(node)];
        SHERLOCK_ASSERT(gap >= 1, "predecessor priority must exceed node's");
        affinity += 1.0 / static_cast<double>(gap);
      }
      double score = options.beta * c.size() + options.alpha * affinity;
      if (score > bestScore) {
        bestScore = score;
        best = ci;
      }
    }
    if (best < 0)
      newCluster(node);
    else
      addToCluster(clusters[static_cast<size_t>(best)], g, node, clusterOf,
                   best);
  }

  // Drop clusters emptied by Case 2 merges and renumber.
  {
    std::vector<Cluster> compact;
    std::vector<int> remap(clusters.size(), -1);
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].nodes.empty()) continue;
      remap[i] = static_cast<int>(compact.size());
      compact.push_back(std::move(clusters[i]));
    }
    for (auto& c : clusterOf)
      if (c >= 0) c = remap[static_cast<size_t>(c)];
    clusters = std::move(compact);
  }

  mergeClusters(g, options, clusters, clusterOf);
  refineClusters(g, options, clusters, clusterOf);

  result.crossClusterEdges = countCrossClusterEdges(g, clusterOf);
  return result;
}

void refineClusters(const Graph& g, const ClusteringOptions& options,
                    std::vector<Cluster>& clusters,
                    std::vector<int>& clusterOf) {
  if (options.refinePasses <= 0 || clusters.size() < 2) return;

  // Reference counts per cluster: how many member nodes contribute each
  // cell value (producer membership + operand occurrences). A cluster's
  // cell set is the keys of its map.
  std::vector<std::map<NodeId, int>> refs(clusters.size());
  for (size_t ci = 0; ci < clusters.size(); ++ci)
    for (NodeId v : clusters[ci].nodes) {
      refs[ci][v]++;
      for (NodeId o : g.node(v).operands) refs[ci][o]++;
    }

  auto addNode = [&](int c, NodeId v) {
    auto& r = refs[static_cast<size_t>(c)];
    r[v]++;
    for (NodeId o : g.node(v).operands) r[o]++;
    clusterOf[static_cast<size_t>(v)] = c;
  };
  auto removeNode = [&](int c, NodeId v) {
    auto& r = refs[static_cast<size_t>(c)];
    auto drop = [&](NodeId x) {
      auto it = r.find(x);
      SHERLOCK_ASSERT(it != r.end(), "refcount underflow");
      if (--it->second == 0) r.erase(it);
    };
    drop(v);
    for (NodeId o : g.node(v).operands) drop(o);
  };
  auto cellsIfMoved = [&](int c, NodeId v) {
    const auto& r = refs[static_cast<size_t>(c)];
    int extra = r.contains(v) ? 0 : 1;
    std::set<NodeId> fresh;
    for (NodeId o : g.node(v).operands)
      if (!r.contains(o)) fresh.insert(o);
    fresh.erase(v);
    return static_cast<int>(r.size()) + extra +
           static_cast<int>(fresh.size());
  };

  for (int pass = 0; pass < options.refinePasses; ++pass) {
    bool changed = false;
    for (NodeId v = g.firstId(); v < g.endId(); ++v) {
      const ir::Node& n = g.node(v);
      if (!n.isOp()) continue;
      int cur = clusterOf[static_cast<size_t>(v)];
      // Count op-neighbor edges per cluster.
      std::map<int, int> neighborCount;
      for (NodeId o : n.operands)
        if (g.node(o).isOp())
          neighborCount[clusterOf[static_cast<size_t>(o)]]++;
      for (NodeId u : n.users)
        neighborCount[clusterOf[static_cast<size_t>(u)]]++;
      int curCount = neighborCount.contains(cur) ? neighborCount[cur] : 0;
      // Strictly better destination, ties broken by lowest cluster index.
      int best = cur, bestCount = curCount;
      for (const auto& [c, count] : neighborCount) {
        if (c == cur) continue;
        if (count > bestCount ||
            (count == bestCount && best != cur && c < best)) {
          best = c;
          bestCount = count;
        }
      }
      if (best == cur) continue;
      if (cellsIfMoved(best, v) > options.columnCapacity) continue;
      removeNode(cur, v);
      addNode(best, v);
      changed = true;
    }
    if (!changed) break;
  }

  // Rebuild the cluster structures from the final assignment.
  std::vector<Cluster> rebuilt(clusters.size());
  for (NodeId v = g.firstId(); v < g.endId(); ++v) {
    if (!g.node(v).isOp()) continue;
    int c = clusterOf[static_cast<size_t>(v)];
    rebuilt[static_cast<size_t>(c)].nodes.push_back(v);
    rebuilt[static_cast<size_t>(c)].cells.insert(v);
    for (NodeId o : g.node(v).operands)
      rebuilt[static_cast<size_t>(c)].cells.insert(o);
  }
  // Drop emptied clusters, renumber.
  std::vector<Cluster> compact;
  std::vector<int> remap(rebuilt.size(), -1);
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    if (rebuilt[i].nodes.empty()) continue;
    remap[i] = static_cast<int>(compact.size());
    compact.push_back(std::move(rebuilt[i]));
  }
  for (auto& c : clusterOf)
    if (c >= 0) c = remap[static_cast<size_t>(c)];
  clusters = std::move(compact);
}

void mergeClusters(const Graph& g, const ClusteringOptions& options,
                   std::vector<Cluster>& clusters,
                   std::vector<int>& clusterOf) {
  if (clusters.empty()) return;

  // Incremental inter-cluster dependency counts (adjacency with edge
  // multiplicities), maintained across merges.
  std::vector<std::map<int, long>> adj(clusters.size());
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const ir::Node& n = g.node(i);
    if (!n.isOp()) continue;
    int ci = clusterOf[static_cast<size_t>(i)];
    for (NodeId o : n.operands) {
      if (!g.node(o).isOp()) continue;
      int co = clusterOf[static_cast<size_t>(o)];
      if (co == ci) continue;
      adj[static_cast<size_t>(ci)][co]++;
      adj[static_cast<size_t>(co)][ci]++;
    }
  }

  std::vector<bool> alive(clusters.size(), true);
  int liveCount = static_cast<int>(clusters.size());

  // Pairs proven infeasible stay infeasible: cluster contents only grow.
  std::set<std::pair<int, int>> blocked;
  auto feasiblePair = [&](int a, int b) {
    const Cluster& ca = clusters[static_cast<size_t>(a)];
    const Cluster& cb = clusters[static_cast<size_t>(b)];
    // Cheap bound: disjoint-union size fits -> feasible without a union.
    if (ca.cellCount() + cb.cellCount() <= options.columnCapacity)
      return true;
    auto key = std::minmax(a, b);
    if (blocked.contains({key.first, key.second})) return false;
    std::set<NodeId> u = ca.cells;
    u.insert(cb.cells.begin(), cb.cells.end());
    bool ok = static_cast<int>(u.size()) <= options.columnCapacity;
    if (!ok) blocked.insert({key.first, key.second});
    return ok;
  };
  auto mergeInto = [&](int dst, int src) {
    Cluster& cd = clusters[static_cast<size_t>(dst)];
    Cluster& cs = clusters[static_cast<size_t>(src)];
    for (NodeId nMoved : cs.nodes) {
      cd.nodes.push_back(nMoved);
      clusterOf[static_cast<size_t>(nMoved)] = dst;
    }
    cd.cells.insert(cs.cells.begin(), cs.cells.end());
    cs.nodes.clear();
    cs.cells.clear();
    for (const auto& [other, count] : adj[static_cast<size_t>(src)]) {
      adj[static_cast<size_t>(other)].erase(src);
      if (other == dst) continue;
      adj[static_cast<size_t>(dst)][other] += count;
      adj[static_cast<size_t>(other)][dst] += count;
    }
    adj[static_cast<size_t>(src)].clear();
    alive[static_cast<size_t>(src)] = false;
    --liveCount;
  };

  // Phase 1 (Algorithm 2 line 30): merge the most inter-dependent
  // feasible pair while more than k clusters remain. Independent clusters
  // are never merged here.
  while (options.targetClusters > 0 && liveCount > options.targetClusters) {
    int bestA = -1, bestB = -1;
    long bestDeps = 0;
    for (size_t a = 0; a < adj.size(); ++a) {
      if (!alive[a]) continue;
      for (const auto& [b, count] : adj[a]) {
        if (static_cast<int>(a) >= b) continue;
        if (count > bestDeps && feasiblePair(static_cast<int>(a), b)) {
          bestDeps = count;
          bestA = static_cast<int>(a);
          bestB = b;
        }
      }
    }
    if (bestA < 0) break;  // no dependent feasible pair remains
    mergeInto(bestA, bestB);
  }

  // Phase 2: enforce the physical column budget, merging the smallest
  // feasible pairs even when independent.
  while (options.maxClusters > 0 && liveCount > options.maxClusters) {
    std::vector<int> order;
    for (size_t i = 0; i < clusters.size(); ++i)
      if (alive[i]) order.push_back(static_cast<int>(i));
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return clusters[static_cast<size_t>(a)].cellCount() <
             clusters[static_cast<size_t>(b)].cellCount();
    });
    int bestA = -1, bestB = -1;
    for (size_t x = 0; x < order.size() && bestA < 0; ++x)
      for (size_t y = x + 1; y < order.size(); ++y)
        if (feasiblePair(order[x], order[y])) {
          bestA = order[x];
          bestB = order[y];
          break;
        }
    if (bestA < 0)
      throw MappingError(strCat(
          "clusters do not fit the target: ", liveCount,
          " clusters needed but only ", options.maxClusters,
          " columns available and no pair fits a column"));
    mergeInto(bestA, bestB);
  }

  // Compact away the emptied clusters and renumber.
  std::vector<Cluster> compact;
  std::vector<int> remap(clusters.size(), -1);
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (!alive[i]) continue;
    remap[i] = static_cast<int>(compact.size());
    compact.push_back(std::move(clusters[i]));
  }
  for (auto& c : clusterOf)
    if (c >= 0) c = remap[static_cast<size_t>(c)];
  clusters = std::move(compact);
}

}  // namespace sherlock::mapping
