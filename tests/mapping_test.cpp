// Unit tests for the mapping layer: the layout allocator, the clustering
// engine (Algorithm 2 cases), both mappers' placement plans, and structural
// invariants of generated programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "ir/analysis.h"
#include "mapping/clustering.h"
#include "mapping/compiler.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock::mapping {
namespace {

using ir::NodeId;
using ir::OpKind;

isa::TargetSpec smallTarget(int n = 64, int mra = 2) {
  return isa::TargetSpec::square(n, device::TechnologyParams::reRam(), mra);
}

// ------------------------------------------------------------- Layout

TEST(Layout, AllocatesDenseRows) {
  Layout l(smallTarget(16));
  auto c0 = l.allocate(1, {0, 3});
  auto c1 = l.allocate(2, {0, 3});
  EXPECT_EQ(c0.row, 0);
  EXPECT_EQ(c1.row, 1);
  EXPECT_EQ(l.freeCells({0, 3}), 14);
  EXPECT_EQ(l.liveCells(), 2);
}

TEST(Layout, ReleaseRecyclesLowestRowFirst) {
  Layout l(smallTarget(16));
  l.allocate(1, {0, 0});
  l.allocate(2, {0, 0});
  l.allocate(3, {0, 0});
  l.release(2);
  auto c = l.allocate(4, {0, 0});
  EXPECT_EQ(c.row, 1);  // the freed row
  EXPECT_EQ(l.peakLiveCells(), 3);
}

TEST(Layout, FullColumnThrows) {
  Layout l(smallTarget(16));
  for (int i = 0; i < 16; ++i) l.allocate(i, {0, 0});
  EXPECT_THROW(l.allocate(99, {0, 0}), MappingError);
}

TEST(Layout, ReplicasTrackedPerColumn) {
  Layout l(smallTarget(16));
  l.allocate(7, {0, 0});
  l.allocate(7, {0, 5});
  EXPECT_EQ(l.placementCount(7), 2);
  EXPECT_TRUE(l.placementIn(7, {0, 0}).has_value());
  EXPECT_TRUE(l.placementIn(7, {0, 5}).has_value());
  EXPECT_FALSE(l.placementIn(7, {0, 1}).has_value());
  l.releaseCellIn(7, {0, 0});
  EXPECT_EQ(l.placementCount(7), 1);
  EXPECT_FALSE(l.placementIn(7, {0, 0}).has_value());
  auto in5 = l.valuesIn({0, 5});
  EXPECT_EQ(in5, std::vector<NodeId>{7});
}

TEST(Layout, BoundsChecked) {
  Layout l(smallTarget(16));
  EXPECT_THROW(l.allocate(1, {99, 0}), Error);  // bad array
  EXPECT_THROW(l.allocate(1, {0, 99}), Error);  // bad column

  // With a fault map the free count reads per-array usable counts, which
  // must not be indexed before the column is checked.
  auto target = smallTarget(16);
  device::FaultMap map(target.numArrays, target.rows(), target.cols());
  map.setFault(0, 2, 3, device::CellFault::StuckAtLrs);
  Layout faulty(target, {&map, 0});
  EXPECT_EQ(faulty.freeCells({0, 3}), 15);
  EXPECT_THROW(faulty.freeCells({99, 0}), Error);  // bad array
  EXPECT_THROW(faulty.freeCells({0, 99}), Error);  // bad column
}

TEST(Layout, BadColumnMessage) {
  Layout l(smallTarget(16));
  try {
    l.allocate(1, {0, 99});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "column 99 out of range");
  }
}

/// The allocator Layout used to be: every usable row of every column in
/// a sorted free list built up front (main and spare region apart),
/// lowest row first, spare rows only once the main list is empty.
class FreeListLayout {
 public:
  FreeListLayout(const isa::TargetSpec& target, const FaultPolicy& faults)
      : rows_(target.rows()), cols_(target.cols()), faults_(faults) {
    spareRows_ = std::min(faults.spareRows, rows_);
    int mainLimit = rows_ - spareRows_;
    size_t columns = static_cast<size_t>(cols_) * target.numArrays;
    main_.resize(columns);
    spare_.resize(columns);
    for (int a = 0; a < target.numArrays; ++a)
      for (int c = 0; c < cols_; ++c)
        for (int r = rows_ - 1; r >= 0; --r) {
          if (faults.map && !faults.map->isUsable(a, r, c)) continue;
          (r < mainLimit ? main_ : spare_)[index({a, c})].push_back(r);
        }
    mainLimit_ = mainLimit;
  }

  int allocate(NodeId value, ColumnRef where) {
    size_t idx = index(where);
    auto* list = &main_[idx];
    if (list->empty() && !spare_[idx].empty()) {
      list = &spare_[idx];
      ++spareAllocations;
    }
    if (list->empty()) {
      std::string detail;
      if (faults_.active()) {
        int usable = rows_;
        if (faults_.map)
          usable = faults_.map->usableCellsPerColumn(where.arrayId,
                                                     rows_)[where.col];
        int unusable = rows_ - usable;
        detail = strCat("; ", unusable, " of ", rows_,
                        " rows unusable due to faults, ", spareRows_,
                        " spare rows all in use");
      }
      throw MappingError(strCat("column ", where.col, " of array ",
                                where.arrayId, " is full (value ", value,
                                ")", detail));
    }
    int row = list->back();
    list->pop_back();
    cells[value].push_back({where.arrayId, where.col, row});
    return row;
  }

  void release(NodeId value) {
    for (const CellAddress& cell : cells[value]) freeRow(cell);
    cells.erase(value);
  }

  void releaseCellIn(NodeId value, ColumnRef where) {
    auto& list = cells[value];
    auto pos = std::find_if(list.begin(), list.end(),
                            [&](const CellAddress& c) {
                              return ColumnRef{c.arrayId, c.col} == where;
                            });
    freeRow(*pos);
    list.erase(pos);
    if (list.empty()) cells.erase(value);
  }

  int freeCells(ColumnRef where) const {
    size_t idx = index(where);
    return static_cast<int>(main_[idx].size() + spare_[idx].size());
  }

  std::vector<NodeId> valuesIn(ColumnRef where) const {
    std::vector<NodeId> out;
    for (const auto& [value, list] : cells)
      for (const CellAddress& c : list)
        if (ColumnRef{c.arrayId, c.col} == where) out.push_back(value);
    return out;
  }

  long spareAllocations = 0;
  std::map<NodeId, std::vector<CellAddress>> cells;

 private:
  size_t index(ColumnRef where) const {
    return static_cast<size_t>(where.arrayId) * cols_ + where.col;
  }
  void freeRow(const CellAddress& cell) {
    auto& list = (cell.row < mainLimit_ ? main_ : spare_)[index(
        {cell.arrayId, cell.col})];
    list.insert(std::lower_bound(list.begin(), list.end(), cell.row,
                                 std::greater<int>{}),
                cell.row);
  }

  int rows_;
  int cols_;
  FaultPolicy faults_;
  int spareRows_ = 0;
  int mainLimit_ = 0;
  std::vector<std::vector<int>> main_;
  std::vector<std::vector<int>> spare_;
};

/// Random allocate / release / releaseCellIn sequences: Layout hands out
/// the same rows as the free-list allocator, reports the same free
/// counts and repairs, and fails a full column with the same message.
void expectMatchesFreeLists(const isa::TargetSpec& target,
                            const FaultPolicy& faults, uint64_t seed) {
  Layout layout(target, faults);
  FreeListLayout ref(target, faults);
  Rng rng(seed);
  const int columns = target.cols() * target.numArrays;
  auto randomColumn = [&] {
    int g = static_cast<int>(rng.below(static_cast<uint64_t>(columns)));
    return ColumnRef{g / target.cols(), g % target.cols()};
  };
  NodeId nextValue = 0;
  int fullColumns = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(strCat("seed ", seed, " step ", step));
    uint64_t action = rng.below(10);
    if (action < 6 || ref.cells.empty()) {
      // Allocate a new value, or a replica of a placed one elsewhere.
      NodeId value = nextValue;
      ColumnRef where = randomColumn();
      if (action == 0 && !ref.cells.empty()) {
        auto it = ref.cells.begin();
        std::advance(it, rng.below(ref.cells.size()));
        value = it->first;
        if (layout.placementIn(value, where)) continue;
      } else {
        ++nextValue;
      }
      std::string refError, error;
      int refRow = -1, row = -1;
      try {
        refRow = ref.allocate(value, where);
      } catch (const MappingError& e) {
        refError = e.what();
      }
      try {
        row = layout.allocate(value, where).row;
      } catch (const MappingError& e) {
        error = e.what();
      }
      ASSERT_EQ(row, refRow);
      ASSERT_EQ(error, refError);
      if (!error.empty()) ++fullColumns;
    } else {
      auto it = ref.cells.begin();
      std::advance(it, rng.below(ref.cells.size()));
      NodeId value = it->first;
      if (action < 8) {
        ref.release(value);
        layout.release(value);
      } else {
        const auto& list = it->second;
        const CellAddress& cell = list[rng.below(list.size())];
        ColumnRef where{cell.arrayId, cell.col};
        ref.releaseCellIn(value, where);
        layout.releaseCellIn(value, where);
      }
      ASSERT_EQ(layout.isPlaced(value), ref.cells.count(value) > 0);
    }
    ASSERT_EQ(layout.spareAllocations(), ref.spareAllocations);
    for (const auto& [value, cells] : ref.cells)
      ASSERT_EQ(layout.placements(value), cells) << "value " << value;
    for (int g = 0; g < columns; ++g) {
      ColumnRef where{g / target.cols(), g % target.cols()};
      ASSERT_EQ(layout.freeCells(where), ref.freeCells(where))
          << "array " << where.arrayId << " column " << where.col;
      ASSERT_EQ(layout.valuesIn(where), ref.valuesIn(where));
    }
  }
  // The sequences must reach the interesting states.
  EXPECT_GT(fullColumns, 0);
  if (faults.spareRows > 0) {
    EXPECT_GT(ref.spareAllocations, 0);
  }
}

TEST(Layout, MatchesFreeListAllocator) {
  auto target = isa::TargetSpec::square(8, device::TechnologyParams::reRam(),
                                        2);
  target.numArrays = 2;
  device::FaultMapOptions fopts;
  fopts.seed = 3;
  fopts.stuckDensity = 0.15;
  fopts.weakDensity = 0.1;
  auto map = device::FaultMap::generate(target.numArrays, target.rows(),
                                        target.cols(), fopts);
  for (uint64_t seed : {1, 2, 3}) {
    expectMatchesFreeLists(target, {}, seed);
    expectMatchesFreeLists(target, {&map, 0}, seed);
    expectMatchesFreeLists(target, {nullptr, 3}, seed);
    expectMatchesFreeLists(target, {&map, 3}, seed);
  }
}

// ---------------------------------------------------------- Clustering

ir::Graph chain(int len) {
  ir::Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId acc = g.addOp(OpKind::And, {a, b});
  for (int i = 1; i < len; ++i) acc = g.addOp(OpKind::And, {acc, a});
  g.markOutput(acc);
  return g;
}

TEST(Clustering, ChainFormsOneCluster) {
  ir::Graph g = chain(10);
  ClusteringOptions opt;
  opt.columnCapacity = 64;
  auto res = findClusters(g, opt);
  EXPECT_EQ(res.clusters.size(), 1u);
  EXPECT_EQ(res.crossClusterEdges, 0);
}

TEST(Clustering, CapacitySplitsChain) {
  ir::Graph g = chain(30);
  ClusteringOptions opt;
  opt.columnCapacity = 10;
  auto res = findClusters(g, opt);
  EXPECT_GT(res.clusters.size(), 1u);
  for (const Cluster& c : res.clusters)
    EXPECT_LE(c.cellCount(), opt.columnCapacity);
}

TEST(Clustering, IndependentTreesSeparate) {
  // Two disjoint trees must never share a cluster (no dependencies).
  ir::Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId c = g.addInput("c"), d = g.addInput("d");
  NodeId t1 = g.addOp(OpKind::And, {a, b});
  NodeId t2 = g.addOp(OpKind::Or, {c, d});
  NodeId t1b = g.addOp(OpKind::Xor, {t1, a});
  NodeId t2b = g.addOp(OpKind::Xor, {t2, c});
  g.markOutput(t1b);
  g.markOutput(t2b);
  ClusteringOptions opt;
  opt.columnCapacity = 64;
  auto res = findClusters(g, opt);
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(t1)],
            res.clusterOf[static_cast<size_t>(t1b)]);
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(t2)],
            res.clusterOf[static_cast<size_t>(t2b)]);
  EXPECT_EQ(res.crossClusterEdges, 0);
}

TEST(Clustering, MergeReachesTargetCount) {
  ir::Graph g = workloads::buildSobel({});
  ClusteringOptions opt;
  opt.columnCapacity = 400;
  opt.targetClusters = 3;
  auto res = findClusters(g, opt);
  EXPECT_LE(res.clusters.size(), 6u);  // best effort toward 3
  for (const Cluster& c : res.clusters)
    EXPECT_LE(c.cellCount(), opt.columnCapacity);
}

TEST(Clustering, EveryOpAssignedExactlyOnce) {
  ir::Graph g = workloads::buildBitweaving({12});
  ClusteringOptions opt;
  opt.columnCapacity = 40;
  auto res = findClusters(g, opt);
  std::set<NodeId> seen;
  for (size_t ci = 0; ci < res.clusters.size(); ++ci)
    for (NodeId n : res.clusters[ci].nodes) {
      EXPECT_TRUE(seen.insert(n).second) << "node " << n << " duplicated";
      EXPECT_EQ(res.clusterOf[static_cast<size_t>(n)],
                static_cast<int>(ci));
    }
  EXPECT_EQ(seen.size(), g.opCount());
}

TEST(Clustering, LowerCrossEdgesThanRoundRobin) {
  // The whole point of Algorithm 2: fewer crossing dependencies than an
  // arbitrary (round-robin) partition of the same granularity.
  ir::Graph g = workloads::buildSobel({});
  ClusteringOptions opt;
  opt.columnCapacity = 100;
  auto res = findClusters(g, opt);

  std::vector<int> roundRobin(g.numNodes(), -1);
  int k = static_cast<int>(res.clusters.size());
  int i = 0;
  for (NodeId op : g.opNodes()) roundRobin[static_cast<size_t>(op)] = i++ % k;
  EXPECT_LT(res.crossClusterEdges, countCrossClusterEdges(g, roundRobin));
}

// ----------------------------------------------------------- Mappers

TEST(NaiveMapper, FillsColumnsInOrder) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(32);  // 32-row columns force several columns
  PlacementPlan plan = mapNaive(g, target);
  EXPECT_GT(plan.usedColumns, 1);
  // Every op has a valid location; leaf homes are unique.
  for (NodeId op : g.opNodes()) {
    const ColumnRef& c = plan.opLocation[static_cast<size_t>(op)];
    EXPECT_GE(c.col, 0);
    EXPECT_LT(c.col, target.cols());
  }
  for (NodeId leaf : g.inputNodes())
    EXPECT_EQ(plan.leafColumns[static_cast<size_t>(leaf)].size(), 1u);
}

TEST(NaiveMapper, ThrowsWhenTargetTooSmall) {
  ir::Graph g = workloads::buildSobel({});
  isa::TargetSpec tiny = smallTarget(8);
  tiny.numArrays = 1;
  EXPECT_THROW(mapNaive(g, tiny), MappingError);
}

TEST(OptMapper, LeavesPreloadedInEveryConsumingColumn) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(32);
  OptMapping m = mapOptimized(g, target);
  for (NodeId leaf : g.inputNodes()) {
    std::set<ColumnRef> consumerCols;
    for (NodeId user : g.node(leaf).users)
      consumerCols.insert(m.plan.opLocation[static_cast<size_t>(user)]);
    std::set<ColumnRef> preloaded(
        m.plan.leafColumns[static_cast<size_t>(leaf)].begin(),
        m.plan.leafColumns[static_cast<size_t>(leaf)].end());
    EXPECT_EQ(preloaded, consumerCols) << "leaf " << leaf;
  }
}

TEST(OptMapper, OpsExecuteInTheirClusterColumn) {
  ir::Graph g = workloads::buildSobel({});
  auto target = smallTarget(128);
  OptMapping m = mapOptimized(g, target);
  for (size_t ci = 0; ci < m.clustering.clusters.size(); ++ci)
    for (NodeId n : m.clustering.clusters[ci].nodes) {
      ColumnRef expected{static_cast<int>(ci) / target.cols(),
                         static_cast<int>(ci) % target.cols()};
      EXPECT_EQ(m.plan.opLocation[static_cast<size_t>(n)], expected);
    }
}

// ------------------------------------------------- Program invariants

TEST(Codegen, ProgramInstructionsValidate) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(64);
  for (auto strategy : {Strategy::Naive, Strategy::Optimized}) {
    CompileOptions opts;
    opts.strategy = strategy;
    auto compiled = compile(g, target, opts);
    for (const auto& inst : compiled.program.instructions)
      EXPECT_NO_THROW(isa::validateInstruction(
          inst, target.numArrays, target.rows(), target.cols()));
    EXPECT_EQ(compiled.program.outputCells.size(), g.outputs().size());
  }
}

TEST(Codegen, MraLimitRespected) {
  ir::Graph g = workloads::buildRandomDag({.inputs = 8,
                                           .ops = 120,
                                           .maxArity = 4,
                                           .notProbability = 0.05,
                                           .locality = 1.0,
                                           .useXor = true,
                                           .seed = 5});
  auto target = smallTarget(64, 4);
  auto compiled = compile(g, target);
  for (const auto& inst : compiled.program.instructions) {
    if (inst.kind == isa::InstKind::Read) {
      EXPECT_LE(inst.rows.size(), 4u);
    }
  }
}

TEST(Codegen, OneCimReadPerOpWithoutMerging) {
  ir::Graph g = workloads::buildBitweaving({8});
  auto target = smallTarget(64);
  CompileOptions opts;
  opts.strategy = Strategy::Naive;  // merging off by default
  auto compiled = compile(g, target, opts);
  long cimColumnOps = 0;
  for (const auto& inst : compiled.program.instructions)
    cimColumnOps += static_cast<long>(inst.colOps.size());
  EXPECT_EQ(cimColumnOps, static_cast<long>(g.opCount()));
}

TEST(Codegen, MergingReducesInstructionCount) {
  ir::Graph g = transforms::canonicalize(workloads::buildSobel({}));
  auto target = smallTarget(128);
  CompileOptions on, off;
  on.strategy = off.strategy = Strategy::Optimized;
  on.mergeInstructions = true;
  off.mergeInstructions = false;
  auto pOn = compile(g, target, on);
  auto pOff = compile(g, target, off);
  EXPECT_LT(pOn.program.instructions.size(),
            pOff.program.instructions.size());
  EXPECT_GT(pOn.program.stats.mergedInstructions, 0);
}

TEST(Codegen, OptOutperformsNaive) {
  // The headline claim at program level: on an instance large enough to
  // span several columns, the optimized mapping produces a program with
  // fewer instructions, fewer spill writes and lower simulated latency.
  workloads::SobelSpec spec;
  spec.width = 8;
  ir::Graph g = transforms::canonicalize(workloads::buildSobel(spec));
  auto target = smallTarget(256);
  CompileOptions naive, opt;
  naive.strategy = Strategy::Naive;
  opt.strategy = Strategy::Optimized;
  auto pn = compile(g, target, naive);
  auto po = compile(g, target, opt);
  EXPECT_LT(po.program.instructions.size(), pn.program.instructions.size());
  EXPECT_LT(po.program.stats.spillWrites, pn.program.stats.spillWrites);
  auto rn = sim::simulate(g, target, pn.program);
  auto ro = sim::simulate(g, target, po.program);
  EXPECT_TRUE(rn.verified);
  EXPECT_TRUE(ro.verified);
  EXPECT_LT(ro.latencyNs, rn.latencyNs);
}

TEST(Codegen, HostWritesCoverAllConsumedLeaves) {
  ir::Graph g = workloads::buildBitweaving({12});
  auto target = smallTarget(64);
  auto compiled = compile(g, target);
  std::set<NodeId> loaded;
  for (const auto& [idx, values] : compiled.program.hostWriteValues) {
    EXPECT_LT(idx, compiled.program.instructions.size());
    EXPECT_EQ(values.size(),
              compiled.program.instructions[idx].columns.size());
    for (NodeId v : values) loaded.insert(v);
  }
  for (NodeId leaf : g.inputNodes()) {
    if (!g.node(leaf).users.empty()) {
      EXPECT_TRUE(loaded.contains(leaf)) << "leaf " << leaf;
    }
  }
}

}  // namespace
}  // namespace sherlock::mapping

#include "mapping/program_analysis.h"

namespace sherlock::mapping {
namespace {

TEST(ProgramAnalysis, CountsMatchStream) {
  ir::Graph g =
      transforms::canonicalize(workloads::buildBitweaving({12}));
  auto target = smallTarget(64);
  auto compiled = compile(g, target);
  auto a = analyzeProgram(compiled.program);
  EXPECT_EQ(a.instructions,
            static_cast<long>(compiled.program.instructions.size()));
  EXPECT_EQ(a.reads, a.cimReads + a.plainReads);
  long colOps = 0;
  for (const auto& [name, count] : a.opMix) colOps += count;
  EXPECT_EQ(colOps, static_cast<long>(g.opCount()));
  EXPECT_EQ(a.chainedOperands, compiled.program.stats.chainedOperands);
  EXPECT_GE(a.meanColumnsPerAccess(), 1.0);
  // The report renders all sections.
  std::string report = a.toString();
  EXPECT_NE(report.find("instructions:"), std::string::npos);
  EXPECT_NE(report.find("op mix:"), std::string::npos);
}

TEST(ProgramAnalysis, MraHistogramReflectsSubstitution) {
  ir::Graph g =
      transforms::canonicalize(workloads::buildBitweaving({12}));
  transforms::SubstitutionOptions sopt;
  sopt.maxOperands = 4;
  auto merged = transforms::substituteNodes(g, sopt);
  auto target = smallTarget(64, 4);
  auto compiled = compile(merged.graph, target);
  auto a = analyzeProgram(compiled.program);
  bool hasWide = false;
  for (size_t k = 3; k < a.activatedRowsHistogram.size(); ++k)
    if (a.activatedRowsHistogram[k] > 0) hasWide = true;
  EXPECT_TRUE(hasWide);
}

}  // namespace
}  // namespace sherlock::mapping
