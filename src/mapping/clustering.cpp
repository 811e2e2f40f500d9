#include "mapping/clustering.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>

#include "ir/analysis.h"

namespace sherlock::mapping {

using ir::Graph;
using ir::NodeId;

namespace {

// Cell sets are ascending vectors of distinct NodeIds.

bool holds(const std::vector<NodeId>& cells, NodeId v) {
  return std::binary_search(cells.begin(), cells.end(), v);
}

void insertCell(std::vector<NodeId>& cells, NodeId v) {
  auto it = std::lower_bound(cells.begin(), cells.end(), v);
  if (it == cells.end() || *it != v) cells.insert(it, v);
}

/// |a ∪ b|, from the overlap counted in place.
int unionSize(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  size_t overlap = 0;
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return static_cast<int>(a.size() + b.size() - overlap);
}

/// dst ∪= src, through the reused buffer `scratch`.
void mergeCells(std::vector<NodeId>& dst, const std::vector<NodeId>& src,
                std::vector<NodeId>& scratch) {
  scratch.clear();
  std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                 std::back_inserter(scratch));
  dst.swap(scratch);
}

/// Cells the cluster would occupy if `node` joined: current cells plus the
/// node's operands and its own result.
int cellsIfAdded(const Cluster& c, const Graph& g, NodeId node) {
  int extra = holds(c.cells, node) ? 0 : 1;
  for (NodeId o : g.node(node).operands)
    if (!holds(c.cells, o)) ++extra;
  return c.cellCount() + extra;
}

void addToCluster(Cluster& c, const Graph& g, NodeId node,
                  std::vector<int>& clusterOf, int clusterIdx) {
  c.nodes.push_back(node);
  insertCell(c.cells, node);
  for (NodeId o : g.node(node).operands) insertCell(c.cells, o);
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

  // Scratch reused across nodes.
  std::vector<int> predClusters;
  std::vector<NodeId> opPreds;
  std::vector<NodeId> unionCells, mergeBuffer;
  for (NodeId node : ir::bLevelSortedOps(g)) {
    // Distinct clusters of the already-assigned op predecessors.
    predClusters.clear();
    opPreds.clear();
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
      unionCells.clear();
      for (int ci : predClusters)
        mergeCells(unionCells, clusters[static_cast<size_t>(ci)].cells,
                   mergeBuffer);
      insertCell(unionCells, node);
      for (NodeId o : g.node(node).operands) insertCell(unionCells, o);
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
          cs.nodes.clear();
          cs.cells.clear();
        }
        cd.cells.swap(unionCells);  // the union already holds the node's cells
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
  // cell value (producer membership + operand occurrences), ascending by
  // cell. A cluster's cell set is the cells of its list.
  struct CellRef {
    NodeId cell;
    int count;
  };
  auto byCell = [](const CellRef& r, NodeId v) { return r.cell < v; };
  std::vector<std::vector<CellRef>> refs(clusters.size());
  std::vector<NodeId> members;
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    members.clear();
    for (NodeId v : clusters[ci].nodes) {
      members.push_back(v);
      const auto& ops = g.node(v).operands;
      members.insert(members.end(), ops.begin(), ops.end());
    }
    std::sort(members.begin(), members.end());
    for (NodeId v : members) {
      if (refs[ci].empty() || refs[ci].back().cell != v)
        refs[ci].push_back({v, 0});
      refs[ci].back().count++;
    }
  }
  auto holdsRef = [&](const std::vector<CellRef>& r, NodeId v) {
    auto it = std::lower_bound(r.begin(), r.end(), v, byCell);
    return it != r.end() && it->cell == v;
  };

  auto addNode = [&](int c, NodeId v) {
    auto& r = refs[static_cast<size_t>(c)];
    auto bump = [&](NodeId x) {
      auto it = std::lower_bound(r.begin(), r.end(), x, byCell);
      if (it == r.end() || it->cell != x) it = r.insert(it, {x, 0});
      it->count++;
    };
    bump(v);
    for (NodeId o : g.node(v).operands) bump(o);
    clusterOf[static_cast<size_t>(v)] = c;
  };
  auto removeNode = [&](int c, NodeId v) {
    auto& r = refs[static_cast<size_t>(c)];
    auto drop = [&](NodeId x) {
      auto it = std::lower_bound(r.begin(), r.end(), x, byCell);
      SHERLOCK_ASSERT(it != r.end() && it->cell == x, "refcount underflow");
      if (--it->count == 0) r.erase(it);
    };
    drop(v);
    for (NodeId o : g.node(v).operands) drop(o);
  };
  std::vector<NodeId> fresh;
  auto cellsIfMoved = [&](int c, NodeId v) {
    const auto& r = refs[static_cast<size_t>(c)];
    int extra = holdsRef(r, v) ? 0 : 1;
    fresh.clear();
    for (NodeId o : g.node(v).operands)
      if (o != v && !holdsRef(r, o)) fresh.push_back(o);
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    return static_cast<int>(r.size()) + extra +
           static_cast<int>(fresh.size());
  };

  // Op-neighbor edges per cluster for the node being considered; zeroed
  // again after each node through `neighbors`.
  std::vector<int> neighborCount(clusters.size(), 0);
  std::vector<int> neighbors;
  auto countNeighbor = [&](NodeId x) {
    int c = clusterOf[static_cast<size_t>(x)];
    if (neighborCount[static_cast<size_t>(c)]++ == 0) neighbors.push_back(c);
  };

  for (int pass = 0; pass < options.refinePasses; ++pass) {
    bool changed = false;
    for (NodeId v = g.firstId(); v < g.endId(); ++v) {
      const ir::Node& n = g.node(v);
      if (!n.isOp()) continue;
      int cur = clusterOf[static_cast<size_t>(v)];
      neighbors.clear();
      for (NodeId o : n.operands)
        if (g.node(o).isOp()) countNeighbor(o);
      for (NodeId u : n.users) countNeighbor(u);
      int curCount = neighborCount[static_cast<size_t>(cur)];
      // Strictly better destination, ties broken by lowest cluster index.
      int best = cur, bestCount = curCount;
      for (int c : neighbors) {
        int count = neighborCount[static_cast<size_t>(c)];
        neighborCount[static_cast<size_t>(c)] = 0;
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
    rebuilt[static_cast<size_t>(clusterOf[static_cast<size_t>(v)])]
        .nodes.push_back(v);
  }
  for (size_t ci = 0; ci < rebuilt.size(); ++ci) {
    rebuilt[ci].cells.reserve(refs[ci].size());
    for (const CellRef& r : refs[ci]) rebuilt[ci].cells.push_back(r.cell);
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
    bool ok = unionSize(ca.cells, cb.cells) <= options.columnCapacity;
    if (!ok) blocked.insert({key.first, key.second});
    return ok;
  };

  // Phase 1's candidate pairs (a < b) in a max-heap: more dependencies
  // first, then the lowest (a, b), which is the pair a scan of every
  // adjacency list in (a, b) order would pick. Entries are invalidated
  // lazily: a merge pushes the new count of every pair it changes, and a
  // popped entry whose cluster died or whose count moved is skipped.
  struct Candidate {
    long deps;
    int a;
    int b;
  };
  auto ranksBelow = [](const Candidate& x, const Candidate& y) {
    if (x.deps != y.deps) return x.deps < y.deps;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  };
  std::vector<Candidate> heap;
  auto push = [&](long deps, int x, int y) {
    heap.push_back({deps, std::min(x, y), std::max(x, y)});
    std::push_heap(heap.begin(), heap.end(), ranksBelow);
  };
  // While Phase 1 runs, mergeInto keeps the heap current.
  bool phase1 =
      options.targetClusters > 0 && liveCount > options.targetClusters;

  std::vector<NodeId> mergeBuffer;
  auto mergeInto = [&](int dst, int src) {
    Cluster& cd = clusters[static_cast<size_t>(dst)];
    Cluster& cs = clusters[static_cast<size_t>(src)];
    for (NodeId nMoved : cs.nodes) {
      cd.nodes.push_back(nMoved);
      clusterOf[static_cast<size_t>(nMoved)] = dst;
    }
    mergeCells(cd.cells, cs.cells, mergeBuffer);
    cs.nodes.clear();
    cs.cells.clear();
    for (const auto& [other, count] : adj[static_cast<size_t>(src)]) {
      adj[static_cast<size_t>(other)].erase(src);
      if (other == dst) continue;
      long& deps = adj[static_cast<size_t>(dst)][other];
      deps += count;
      adj[static_cast<size_t>(other)][dst] += count;
      if (phase1) push(deps, dst, other);
    }
    adj[static_cast<size_t>(src)].clear();
    alive[static_cast<size_t>(src)] = false;
    --liveCount;
  };

  // Phase 1 (Algorithm 2 line 30): merge the most inter-dependent
  // feasible pair while more than k clusters remain. Independent clusters
  // are never merged here.
  if (phase1) {
    for (size_t a = 0; a < adj.size(); ++a)
      for (const auto& [b, count] : adj[a])
        if (static_cast<int>(a) < b)
          heap.push_back({count, static_cast<int>(a), b});
    std::make_heap(heap.begin(), heap.end(), ranksBelow);
  }
  while (phase1 && liveCount > options.targetClusters) {
    int bestA = -1, bestB = -1;
    while (!heap.empty() && bestA < 0) {
      std::pop_heap(heap.begin(), heap.end(), ranksBelow);
      Candidate c = heap.back();
      heap.pop_back();
      if (!alive[static_cast<size_t>(c.a)] || !alive[static_cast<size_t>(c.b)])
        continue;
      const auto& row = adj[static_cast<size_t>(c.a)];
      auto it = row.find(c.b);
      if (it == row.end() || it->second != c.deps) continue;  // stale
      // An infeasible pair is dropped for good: clusters only grow.
      if (!feasiblePair(c.a, c.b)) continue;
      bestA = c.a;
      bestB = c.b;
    }
    if (bestA < 0) break;  // no dependent feasible pair remains
    mergeInto(bestA, bestB);
  }
  phase1 = false;

  // Phase 2: enforce the physical column budget, merging the smallest
  // feasible pairs even when independent. Among clusters of equal size
  // the pick is whichever std::sort leaves first, so every iteration
  // keeps the full sort. It sorts (cell count, index) pairs by count
  // alone: the same comparisons on the same input as sorting indices by
  // looked-up count, hence the same order.
  std::vector<std::pair<int, int>> order;
  while (options.maxClusters > 0 && liveCount > options.maxClusters) {
    order.clear();
    for (size_t i = 0; i < clusters.size(); ++i)
      if (alive[i])
        order.push_back({clusters[i].cellCount(), static_cast<int>(i)});
    std::sort(order.begin(), order.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    int bestA = -1, bestB = -1;
    for (size_t x = 0; x < order.size() && bestA < 0; ++x)
      for (size_t y = x + 1; y < order.size(); ++y)
        if (feasiblePair(order[x].second, order[y].second)) {
          bestA = order[x].second;
          bestB = order[y].second;
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
