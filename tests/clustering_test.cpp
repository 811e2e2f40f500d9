// Focused tests for the Algorithm 2 clustering engine: the paper's
// Fig. 5 assignment cases, the MergeClusters step, and the refinement
// pass — each exercised on hand-built DAGs where the expected grouping is
// known.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "ir/analysis.h"
#include "isa/instruction.h"
#include "mapping/clustering.h"
#include "mapping/opt_mapper.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "verify/verifier.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock::mapping {
namespace {

using ir::Graph;
using ir::NodeId;
using ir::OpKind;

/// Puts op node n into cluster c by hand: n and its operands become
/// cells (ascending, distinct).
void addMember(Cluster& c, const Graph& g, NodeId n) {
  c.nodes.push_back(n);
  c.cells.push_back(n);
  for (NodeId o : g.node(n).operands) c.cells.push_back(o);
  std::sort(c.cells.begin(), c.cells.end());
  c.cells.erase(std::unique(c.cells.begin(), c.cells.end()), c.cells.end());
}

ClusteringOptions opts(int capacity, int target = 0, int maxC = 0) {
  ClusteringOptions o;
  o.columnCapacity = capacity;
  o.targetClusters = target;
  o.maxClusters = maxC;
  return o;
}

// Case 1: a node with a single predecessor joins its cluster while it
// fits, and opens a new cluster when it does not.
TEST(AlgorithmCases, Case1JoinsPredecessorCluster) {
  Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Or, {x, a});
  g.markOutput(y);
  auto res = findClusters(g, opts(64));
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(x)],
            res.clusterOf[static_cast<size_t>(y)]);
}

TEST(AlgorithmCases, Case1OverflowOpensNewCluster) {
  Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId acc = g.addOp(OpKind::And, {a, b});
  std::vector<NodeId> chainNodes{acc};
  for (int i = 0; i < 6; ++i) {
    acc = g.addOp(OpKind::And, {acc, a});
    chainNodes.push_back(acc);
  }
  g.markOutput(acc);
  // Capacity 5 cells: {a, b} + results fill quickly; the chain must split.
  auto res = findClusters(g, opts(5));
  std::set<int> used;
  for (NodeId n : chainNodes)
    used.insert(res.clusterOf[static_cast<size_t>(n)]);
  EXPECT_GT(used.size(), 1u);
  for (const Cluster& c : res.clusters) EXPECT_LE(c.cellCount(), 5);
}

// Case 2 (paper Fig. 5a): a join node whose predecessor clusters have
// identical size and priorities merges them.
TEST(AlgorithmCases, Case2MergesSymmetricClusters) {
  Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId c = g.addInput("c"), d = g.addInput("d");
  NodeId l = g.addOp(OpKind::And, {a, b});   // left cluster
  NodeId r = g.addOp(OpKind::And, {c, d});   // right cluster, same shape
  NodeId join = g.addOp(OpKind::Xor, {l, r});
  g.markOutput(join);
  auto res = findClusters(g, opts(64));
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(l)],
            res.clusterOf[static_cast<size_t>(r)]);
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(l)],
            res.clusterOf[static_cast<size_t>(join)]);
  EXPECT_EQ(res.crossClusterEdges, 0);
}

// Case 4 (paper Fig. 5c): greater dependence on one cluster wins.
TEST(AlgorithmCases, Case4FollowsStrongerDependence) {
  Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b"), c = g.addInput("c");
  NodeId d = g.addInput("d"), e = g.addInput("e");
  // Left cluster: one producer; right cluster: two producers, deeper.
  NodeId l1 = g.addOp(OpKind::And, {a, b});
  NodeId r1 = g.addOp(OpKind::And, {c, d});
  NodeId r2 = g.addOp(OpKind::Or, {r1, e});
  NodeId r3 = g.addOp(OpKind::And, {r1, c});
  // Join depends once on the left cluster, twice on the right one.
  NodeId join = g.addOp(OpKind::Xor, {l1, r2, r3});
  g.markOutput(join);
  auto res = findClusters(g, opts(64));
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(join)],
            res.clusterOf[static_cast<size_t>(r2)]);
}

// Case 5 (paper Fig. 5d): under equal dependence, the smaller cluster
// wins (beta < 0).
TEST(AlgorithmCases, Case5PrefersSmallerCluster) {
  Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b"), c = g.addInput("c");
  NodeId d = g.addInput("d"), e = g.addInput("e");
  // Big cluster: chain of three; small cluster: single node. Level the
  // priorities so the join sees equal gaps.
  NodeId big1 = g.addOp(OpKind::And, {a, b});
  NodeId big2 = g.addOp(OpKind::And, {big1, c});
  NodeId big3 = g.addOp(OpKind::And, {big2, d});
  NodeId small1 = g.addOp(OpKind::Or, {d, e});
  NodeId join = g.addOp(OpKind::Xor, {big3, small1});
  g.markOutput(join);
  auto res = findClusters(g, opts(64));
  // big3 and small1 share the b-level (both feed only the join), so the
  // affinity terms tie and the size term must decide.
  auto levels = ir::bLevels(g);
  ASSERT_EQ(levels[static_cast<size_t>(big3)],
            levels[static_cast<size_t>(small1)]);
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(join)],
            res.clusterOf[static_cast<size_t>(small1)]);
}

// MergeClusters: dependent clusters merge toward k; independent ones are
// left alone by phase 1.
TEST(MergeClusters, DependentPairsMergeFirst) {
  Graph g;
  // Two dependent chains (A feeds B) plus an unrelated chain C.
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId c = g.addInput("c"), d = g.addInput("d");
  NodeId chainA = g.addOp(OpKind::And, {a, b});
  NodeId chainB = g.addOp(OpKind::Or, {chainA, a});
  NodeId chainC = g.addOp(OpKind::Xor, {c, d});
  g.markOutput(chainB);
  g.markOutput(chainC);

  // Force three singleton clusters, then merge toward 2.
  std::vector<Cluster> clusters(3);
  std::vector<int> clusterOf(g.numNodes(), -1);
  int idx = 0;
  for (NodeId n : {chainA, chainB, chainC}) {
    addMember(clusters[static_cast<size_t>(idx)], g, n);
    clusterOf[static_cast<size_t>(n)] = idx;
    ++idx;
  }
  mergeClusters(g, opts(64, 2), clusters, clusterOf);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusterOf[static_cast<size_t>(chainA)],
            clusterOf[static_cast<size_t>(chainB)]);
  EXPECT_NE(clusterOf[static_cast<size_t>(chainA)],
            clusterOf[static_cast<size_t>(chainC)]);
}

TEST(MergeClusters, IndependentClustersStaySeparate) {
  Graph g;
  std::vector<NodeId> sinks;
  for (int i = 0; i < 4; ++i) {
    NodeId x = g.addInput(strCat("x", i));
    NodeId y = g.addInput(strCat("y", i));
    sinks.push_back(g.addOp(OpKind::And, {x, y}));
    g.markOutput(sinks.back());
  }
  auto res = findClusters(g, opts(64, /*target=*/1));
  // Phase 1 refuses to merge independent clusters even though k = 1.
  EXPECT_EQ(res.clusters.size(), 4u);
}

TEST(MergeClusters, HardCapForcesIndependentMerges) {
  Graph g;
  for (int i = 0; i < 4; ++i) {
    NodeId x = g.addInput(strCat("x", i));
    NodeId y = g.addInput(strCat("y", i));
    g.markOutput(g.addOp(OpKind::And, {x, y}));
  }
  auto res = findClusters(g, opts(64, 1, /*maxClusters=*/2));
  EXPECT_EQ(res.clusters.size(), 2u);
}

TEST(MergeClusters, ThrowsWhenNothingFits) {
  Graph g;
  for (int i = 0; i < 3; ++i) {
    NodeId x = g.addInput(strCat("x", i));
    NodeId y = g.addInput(strCat("y", i));
    g.markOutput(g.addOp(OpKind::And, {x, y}));
  }
  // Capacity 3 holds exactly one op (2 operands + result): merging any two
  // clusters is infeasible, but the cap demands one cluster.
  EXPECT_THROW(findClusters(g, opts(3, 1, 1)), MappingError);
}

// Refinement: a node seeded into the wrong cluster migrates to its
// neighbors.
TEST(Refinement, MovesNodeToNeighborCluster) {
  Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId c = g.addInput("c"), d = g.addInput("d");
  NodeId t1 = g.addOp(OpKind::And, {a, b});
  NodeId t2 = g.addOp(OpKind::Or, {t1, a});
  NodeId u1 = g.addOp(OpKind::Xor, {c, d});
  g.markOutput(t2);
  g.markOutput(u1);

  // Deliberately bad seed: t2 grouped with the unrelated u1.
  std::vector<Cluster> clusters(2);
  std::vector<int> clusterOf(g.numNodes(), -1);
  auto seed = [&](int ci, NodeId n) {
    addMember(clusters[static_cast<size_t>(ci)], g, n);
    clusterOf[static_cast<size_t>(n)] = ci;
  };
  seed(0, t1);
  seed(1, t2);
  seed(1, u1);
  ASSERT_EQ(countCrossClusterEdges(g, clusterOf), 1);

  ClusteringOptions o = opts(64);
  refineClusters(g, o, clusters, clusterOf);
  EXPECT_EQ(countCrossClusterEdges(g, clusterOf), 0);
  EXPECT_EQ(clusterOf[static_cast<size_t>(t1)],
            clusterOf[static_cast<size_t>(t2)]);
}

TEST(Refinement, NeverExceedsCapacity) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 200;
    spec.maxArity = 3;
    Graph g = workloads::buildRandomDag(spec);
    auto res = findClusters(g, opts(20));
    for (const Cluster& c : res.clusters)
      EXPECT_LE(c.cellCount(), 20) << "seed " << seed;
  }
}

TEST(Refinement, NeverIncreasesCrossEdges) {
  for (uint64_t seed = 10; seed <= 15; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 300;
    spec.maxArity = 3;
    Graph g = workloads::buildRandomDag(spec);

    ClusteringOptions noRefine = opts(30);
    noRefine.refinePasses = 0;
    ClusteringOptions withRefine = opts(30);
    withRefine.refinePasses = 3;
    auto before = findClusters(g, noRefine);
    auto after = findClusters(g, withRefine);
    EXPECT_LE(after.crossClusterEdges, before.crossClusterEdges)
        << "seed " << seed;
  }
}

// Property (checked with the static verifier's per-instruction rules):
// every cluster the engine emits is encodable under the scouting-logic
// ISA — each member op's operands live in the same column (so one shared
// activated-row set covers them) and its fan-in respects the technology's
// MRA bound when the DAG's arity matches the target MRA.
TEST(ClusterProperties, ClustersEncodableUnderIsaRules) {
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    for (int mra : {2, 3, 4}) {
      workloads::RandomDagSpec spec;
      spec.seed = seed;
      spec.ops = 150;
      spec.maxArity = mra;
      Graph g = workloads::buildRandomDag(spec);
      isa::TargetSpec target = isa::TargetSpec::square(
          64, device::TechnologyParams::reRam(), mra);
      auto res = findClusters(g, opts(target.rows()));

      for (size_t ci = 0; ci < res.clusters.size(); ++ci) {
        const Cluster& c = res.clusters[ci];
        ASSERT_LE(c.cellCount(), target.rows())
            << "seed " << seed << " cluster " << ci;
        // One row per value the column holds.
        std::map<NodeId, int> rowOf;
        for (NodeId cell : c.cells)
          rowOf.emplace(cell, static_cast<int>(rowOf.size()));
        int col = static_cast<int>(ci) % target.cols();

        for (NodeId n : c.nodes) {
          const ir::Node& node = g.node(n);
          std::vector<int> rows;
          for (NodeId o : node.operands) {
            auto it = rowOf.find(o);
            // Shared-activated-row constraint: every operand occupies a
            // cell of this cluster's column.
            ASSERT_NE(it, rowOf.end())
                << "seed " << seed << " cluster " << ci << ": operand " << o
                << " of node " << n << " has no cell in the cluster";
            rows.push_back(it->second);
          }
          std::sort(rows.begin(), rows.end());
          auto inst = isa::makeCimRead(0, {col}, rows, {node.op});
          auto violation = verify::checkInstructionRules(inst, target);
          EXPECT_FALSE(violation.has_value())
              << "seed " << seed << " cluster " << ci << " node " << n
              << ": " << violation->toString();
        }
      }
    }
  }
}

uint64_t clusterDigest(const ClusteringResult& r) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](int64_t v) {
    for (int byte = 0; byte < 8; ++byte)
      h = (h ^ static_cast<uint8_t>(v >> (8 * byte))) * 1099511628211ULL;
  };
  for (int c : r.clusterOf) mix(c);
  for (const Cluster& c : r.clusters) {
    mix(-2);
    for (NodeId n : c.nodes) mix(n);
  }
  return h;
}

/// The random DAG and target bench_micro_mapper times (same spec).
Graph microBenchDag(int ops) {
  workloads::RandomDagSpec spec;
  spec.inputs = std::max(8, ops / 16);
  spec.ops = ops;
  spec.maxArity = 3;
  spec.locality = 0.4;
  spec.seed = 1234;
  return transforms::canonicalize(workloads::buildRandomDag(spec));
}

isa::TargetSpec microBenchTarget(const Graph& g) {
  isa::TargetSpec t =
      isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 3);
  t.numArrays = 1 + static_cast<int>(g.valueCount()) / (512 * 400);
  return t;
}

/// Clusters of the paper trio under the optimizing flows of golden_test
/// (ReRAM 1024² MRA 2, and 512² MRA 4 after affinity-ordered
/// substitution) and of bench_micro_mapper's random DAGs, whose 4,096-
/// and 16,384-op instances pass through Phase 2's column cap.
std::vector<std::pair<std::string, uint64_t>> currentClusterDigests() {
  std::vector<std::pair<std::string, std::function<Graph()>>> kernels{
      {"Bitweaving",
       [] {
         workloads::BitweavingSpec s;
         s.bits = 16;
         s.segments = 32;
         return workloads::buildBitweaving(s);
       }},
      {"Sobel",
       [] {
         workloads::SobelSpec s;
         s.width = 16;
         return workloads::buildSobel(s);
       }},
      {"AES", [] { return workloads::buildAes({10}); }},
  };
  const auto reram = device::TechnologyParams::reRam();
  std::vector<std::pair<std::string, uint64_t>> digests;
  for (const auto& [name, build] : kernels) {
    Graph canonical = transforms::canonicalize(build());
    digests.emplace_back(
        strCat(name, " 1024-mra2"),
        clusterDigest(mapOptimized(canonical,
                                   isa::TargetSpec::square(1024, reram, 2))
                          .clustering));
    transforms::SubstitutionOptions sopt;
    sopt.maxOperands = 4;
    sopt.order = transforms::MergeOrder::ByAffinity;
    Graph merged = transforms::substituteNodes(canonical, sopt).graph;
    digests.emplace_back(
        strCat(name, " 512-mra4"),
        clusterDigest(
            mapOptimized(merged, isa::TargetSpec::square(512, reram, 4))
                .clustering));
  }
  for (int ops : {1024, 4096, 16384}) {
    Graph g = microBenchDag(ops);
    digests.emplace_back(
        strCat("random-", ops),
        clusterDigest(mapOptimized(g, microBenchTarget(g)).clustering));
  }
  return digests;
}

// Recorded from the clustering before its cell sets, refcounts and
// Phase 1 pick became flat; every cluster must stay the same.
// clang-format off
const std::pair<const char*, uint64_t> kClusterDigests[] = {
  {"Bitweaving 1024-mra2", 0x76dda2d86735bda1ULL},
  {"Bitweaving 512-mra4", 0x9d3b3af3c02659aeULL},
  {"Sobel 1024-mra2", 0x34a812c5b88a5f7dULL},
  {"Sobel 512-mra4", 0x99c9b52a9cdf61b2ULL},
  {"AES 1024-mra2", 0xa87cfbf60626834aULL},
  {"AES 512-mra4", 0xdd3209c7423789d3ULL},
  {"random-1024", 0xb88d3cd059ed820eULL},
  {"random-4096", 0x5302783b93257f89ULL},
  {"random-16384", 0x67ecb6c2df7e144dULL},
};
// clang-format on

TEST(ClusterDigests, MatchTheRecordedClusters) {
  auto digests = currentClusterDigests();
  std::string table;
  for (const auto& [name, digest] : digests) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    table += strCat("  {\"", name, "\", 0x", hex, "ULL},\n");
  }
  ASSERT_EQ(digests.size(), std::size(kClusterDigests))
      << "current table:\n" << table;
  for (size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kClusterDigests[i].first);
    EXPECT_EQ(digests[i].second, kClusterDigests[i].second)
        << digests[i].first << ": clusters changed\n" << table;
  }
}

}  // namespace
}  // namespace sherlock::mapping
