// Property tests for the inter-array partitioner (src/mapping/partition):
// on 50 seeded random DAGs clustered with a deliberately small column
// capacity and placed on a 2x2 mesh with tight per-array budgets, the
// assignment must respect every budget, serve each cut (value,
// destination-array) pair with exactly one transfer, and produce a
// list-schedule estimate where the overlapped makespan never exceeds the
// serialized one. Degenerate cases (kernel fits one array, budget too
// small for the cluster count) are pinned separately.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "dag_fuzz.h"
#include "mapping/partition.h"
#include "support/diagnostics.h"
#include "transforms/passes.h"
#include "workloads/random_dag.h"

namespace sherlock::mapping {
namespace {

isa::TargetSpec meshTarget(int rows, int cols) {
  isa::TargetSpec t = isa::TargetSpec::square(
      64, device::TechnologyParams::reRam(), 2);
  return t.withGrid(arraymodel::GridConfig{rows, cols});
}

ClusteringResult clusterSmall(const ir::Graph& g, int capacity,
                              int maxClusters) {
  ClusteringOptions co;
  co.columnCapacity = capacity;
  co.targetClusters = maxClusters;
  co.maxClusters = maxClusters;
  return findClusters(g, co);
}

/// Independently derives the cut implied by (clusterOf, arrayOf): every
/// operand edge whose producer and consumer op land on different arrays,
/// plus the deduplicated (value, dstArray) transfer set.
struct ExpectedCut {
  long cutEdges = 0;
  std::set<std::pair<ir::NodeId, int>> transfers;
};

ExpectedCut deriveCut(const ir::Graph& g, const ClusteringResult& clustering,
                      const PartitionResult& part) {
  ExpectedCut cut;
  for (ir::NodeId v = g.firstId(); v < g.endId(); ++v) {
    const ir::Node& n = g.node(v);
    if (!n.isOp()) continue;
    int srcArray = part.arrayOf[static_cast<size_t>(
        clustering.clusterOf[static_cast<size_t>(v)])];
    for (ir::NodeId user : n.users) {
      int dstArray = part.arrayOf[static_cast<size_t>(
          clustering.clusterOf[static_cast<size_t>(user)])];
      if (dstArray == srcArray) continue;
      cut.cutEdges++;
      cut.transfers.insert({v, dstArray});
    }
  }
  return cut;
}

TEST(Partition, PropertiesHoldOnRandomDags) {
  const isa::TargetSpec target = meshTarget(2, 2);
  long shardedSeeds = 0;

  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    ir::Graph g = transforms::canonicalize(
        workloads::buildRandomDag(testing::sampleDagSpec(seed)));
    ClusteringResult clustering = clusterSmall(g, 12, 0);
    const int n = static_cast<int>(clustering.clusters.size());
    // The tightest uniform budget that still fits: forces the placement
    // to spread across arrays whenever there is more than one cluster.
    PartitionOptions popts;
    popts.maxColumnsPerArray = std::max(1, (n + 3) / 4);
    PartitionResult part = partitionClusters(g, clustering, target, popts);

    // Assignment shape: one in-range array per cluster.
    ASSERT_EQ(part.arrayOf.size(), clustering.clusters.size());
    std::vector<int> load(static_cast<size_t>(target.numArrays), 0);
    for (int a : part.arrayOf) {
      ASSERT_GE(a, 0);
      ASSERT_LT(a, target.numArrays);
      load[static_cast<size_t>(a)]++;
    }
    // Capacity: no array exceeds its column budget.
    for (int a = 0; a < target.numArrays; ++a)
      EXPECT_LE(load[static_cast<size_t>(a)], popts.maxColumnsPerArray)
          << "array " << a << " over budget";

    // Cut accounting matches an independent derivation, with exactly one
    // transfer per cut (value, dstArray) pair.
    ExpectedCut expected = deriveCut(g, clustering, part);
    EXPECT_EQ(part.cutEdges, expected.cutEdges);
    std::set<std::pair<ir::NodeId, int>> actual;
    for (const Transfer& t : part.transfers) {
      EXPECT_TRUE(actual.insert({t.value, t.dstArray}).second)
          << "duplicate transfer for value " << t.value << " into array "
          << t.dstArray;
      EXPECT_NE(t.srcArray, t.dstArray);
      EXPECT_EQ(t.srcArray,
                part.arrayOf[static_cast<size_t>(t.producerCluster)]);
      EXPECT_EQ(t.hops, target.hopsBetween(t.srcArray, t.dstArray));
      EXPECT_EQ(clustering.clusterOf[static_cast<size_t>(t.value)],
                t.producerCluster);
    }
    EXPECT_EQ(actual, expected.transfers);

    // Schedule estimate: overlapping compute with movement can only help.
    EXPECT_GT(part.serializedMakespanNs, 0.0);
    EXPECT_GT(part.overlappedMakespanNs, 0.0);
    EXPECT_LE(part.overlappedMakespanNs,
              part.serializedMakespanNs * (1 + 1e-9));

    if (!part.singleArray) shardedSeeds++;
    if (part.singleArray) {
      EXPECT_TRUE(part.transfers.empty());
    }
  }
  // The suite is only meaningful if the tight budgets actually force
  // multi-array placements on a healthy fraction of the seeds.
  EXPECT_GT(shardedSeeds, 10) << "budgets too loose: sharding not exercised";
}

TEST(Partition, SingleArrayFallbackWhenKernelFits) {
  const isa::TargetSpec target = meshTarget(2, 2);
  ir::Graph g = transforms::canonicalize(
      workloads::buildRandomDag(testing::sampleDagSpec(3)));
  // Full 64-column budget per array: everything fits array 0.
  ClusteringResult clustering = clusterSmall(g, 12, 32);
  PartitionResult part = partitionClusters(g, clustering, target, {});
  EXPECT_TRUE(part.singleArray);
  EXPECT_TRUE(part.transfers.empty());
  EXPECT_EQ(part.cutEdges, 0);
  for (int a : part.arrayOf) EXPECT_EQ(a, part.arrayOf.front());
  EXPECT_LE(part.overlappedMakespanNs,
            part.serializedMakespanNs * (1 + 1e-9));
}

TEST(Partition, ThrowsWhenBudgetBelowClusterCount) {
  const isa::TargetSpec target = meshTarget(2, 2);
  workloads::RandomDagSpec spec;
  spec.seed = 7;
  spec.inputs = 8;
  spec.ops = 120;
  ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));
  ClusteringResult clustering = clusterSmall(g, 8, 0);
  ASSERT_GT(clustering.clusters.size(), 4u);
  PartitionOptions popts;
  popts.maxColumnsPerArray = 1;  // 4 columns total < cluster count
  EXPECT_THROW(partitionClusters(g, clustering, target, popts),
               MappingError);
}

TEST(Partition, PerArrayBudgetOverrideRespected) {
  const isa::TargetSpec target = meshTarget(1, 2);
  ir::Graph g = transforms::canonicalize(
      workloads::buildRandomDag(testing::sampleDagSpec(5)));
  ClusteringResult clustering = clusterSmall(g, 10, 0);
  const int n = static_cast<int>(clustering.clusters.size());
  ASSERT_GE(n, 2);
  // Lopsided budgets: array 0 takes one cluster, array 1 the rest.
  PartitionOptions popts;
  popts.arrayColumnBudget = {1, n};
  PartitionResult part = partitionClusters(g, clustering, target, popts);
  int inZero = 0;
  for (int a : part.arrayOf) inZero += a == 0 ? 1 : 0;
  EXPECT_LE(inZero, 1);
}

}  // namespace
}  // namespace sherlock::mapping
