// Unit tests for the mapping layer: the layout allocator, the clustering
// engine (Algorithm 2 cases), both mappers' placement plans, and structural
// invariants of generated programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "dag_fuzz.h"
#include "ir/analysis.h"
#include "mapping/clustering.h"
#include "mapping/compiler.h"
#include "mapping/flow.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "workloads/aes.h"
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

  /// Places `value` in `row` of the column, which must be free.
  void allocateAt(NodeId value, ColumnRef where, int row) {
    auto& list = (row < mainLimit_ ? main_ : spare_)[index(where)];
    list.erase(std::find(list.begin(), list.end(), row));
    if (row >= mainLimit_) ++spareAllocations;
    cells[value].push_back({where.arrayId, where.col, row});
  }

  /// The lowest main-region row free and usable in every column.
  std::optional<int> commonFreeRow(const std::vector<ColumnRef>& group) const {
    for (int row = 0; row < mainLimit_; ++row) {
      bool freeInAll = true;
      for (ColumnRef where : group) {
        const auto& list = main_[index(where)];
        freeInAll &= std::find(list.begin(), list.end(), row) != list.end();
      }
      if (freeInAll) return row;
    }
    return std::nullopt;
  }

  bool hasFreeMainRow(ColumnRef where) const {
    return !main_[index(where)].empty();
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

/// Random allocate / release / releaseCellIn sequences, mixed with
/// aligned allocations (commonFreeRow over 1-3 columns of one array,
/// then allocateAt in each, as codegen's round flush does): Layout hands
/// out the same rows as the free-list allocator, finds the same common
/// rows, reports the same free counts and repairs, and fails a full
/// column with the same message.
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
  int alignedRows = 0, noCommonRow = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(strCat("seed ", seed, " step ", step));
    uint64_t action = rng.below(12);
    if (action >= 10) {
      int arrayId = static_cast<int>(
          rng.below(static_cast<uint64_t>(target.numArrays)));
      std::vector<ColumnRef> group;
      for (uint64_t k = 1 + rng.below(3); k > 0; --k) {
        ColumnRef where{arrayId, static_cast<int>(rng.below(
                                     static_cast<uint64_t>(target.cols())))};
        if (std::find(group.begin(), group.end(), where) == group.end())
          group.push_back(where);
      }
      std::optional<int> row = layout.commonFreeRow(group);
      ASSERT_EQ(row, ref.commonFreeRow(group));
      if (!row) {
        ++noCommonRow;
      } else if (action == 11) {
        ++alignedRows;
        for (ColumnRef where : group) {
          ref.allocateAt(nextValue, where, *row);
          ASSERT_EQ(layout.allocateAt(nextValue, where, *row).row, *row);
          ++nextValue;
        }
        EXPECT_THROW(layout.allocateAt(nextValue, group.front(), *row),
                     Error);
      }
    } else if (action < 6 || ref.cells.empty()) {
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
      ASSERT_EQ(layout.hasFreeMainRow(where), ref.hasFreeMainRow(where));
      ASSERT_EQ(layout.valuesIn(where), ref.valuesIn(where));
    }
  }
  // The sequences must reach the interesting states.
  EXPECT_GT(fullColumns, 0);
  EXPECT_GT(alignedRows, 0);
  EXPECT_GT(noCommonRow, 0);
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

/// Execution column of each cluster, in cluster order (every op of a
/// cluster runs in the same column).
std::vector<ColumnRef> clusterColumns(const OptMapping& m) {
  std::vector<ColumnRef> cols;
  for (const Cluster& c : m.clustering.clusters)
    cols.push_back(m.plan.opLocation[static_cast<size_t>(c.nodes.front())]);
  return cols;
}

/// Sticks every cell of (arrayId, col) except row 0: one usable cell is
/// too few to hold a cluster, so the optimizing mapper skips the column.
void killColumn(device::FaultMap& map, int arrayId, int col) {
  for (int row = 1; row < map.rows(); ++row)
    map.setFault(arrayId, row, col, device::CellFault::StuckAtHrs);
}

TEST(OptMapper, KernelThatFitsGoesOnFirstArrayWithRoom) {
  ir::Graph g = workloads::buildBitweaving({16});
  isa::TargetSpec target = smallTarget(32);
  target.numArrays = 4;
  std::vector<ColumnRef> fit = clusterColumns(mapOptimized(g, target));
  ASSERT_GT(fit.size(), 1u);
  for (size_t ci = 0; ci < fit.size(); ++ci)
    EXPECT_EQ(fit[ci], (ColumnRef{0, static_cast<int>(ci)}));

  // Array 0 keeps one usable column, too few for the kernel: the whole
  // kernel moves to array 1 instead of spilling across arrays.
  device::FaultMap map(target.numArrays, target.rows(), target.cols());
  for (int col = 1; col < target.cols(); ++col) killColumn(map, 0, col);
  FaultPolicy faults{&map, 0};
  std::vector<ColumnRef> moved =
      clusterColumns(mapOptimized(g, target, {}, faults));
  ASSERT_GT(moved.size(), 1u);
  for (size_t ci = 0; ci < moved.size(); ++ci)
    EXPECT_EQ(moved[ci], (ColumnRef{1, static_cast<int>(ci)}));
}

/// Checks a spilled placement against the usable columns of each array
/// (`slots`, in column order): clusters of one array take its first
/// usable columns in cluster order, so no array exceeds its budget and
/// no cluster lands on a column outside `slots`. Returns the array count.
int expectColumnsFilledPerArray(
    const std::vector<ColumnRef>& cols,
    const std::vector<std::vector<ColumnRef>>& slots) {
  std::vector<size_t> cursor(slots.size(), 0);
  std::set<int> arrays;
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    auto a = static_cast<size_t>(cols[ci].arrayId);
    EXPECT_LT(a, slots.size()) << "cluster " << ci;
    if (a >= slots.size()) continue;
    EXPECT_LT(cursor[a], slots[a].size())
        << "cluster " << ci << " overflows array " << a;
    if (cursor[a] < slots[a].size()) {
      EXPECT_EQ(cols[ci], slots[a][cursor[a]]) << "cluster " << ci;
    }
    cursor[a]++;
    arrays.insert(cols[ci].arrayId);
  }
  return static_cast<int>(arrays.size());
}

TEST(OptMapper, SpillKeepsCapsAndNoSingleMoveCutsFewerEdges) {
  isa::TargetSpec target = smallTarget(16);
  OptMapperOptions options;
  options.maxColumnsPerArray = 2;
  options.refinePasses = 1000;  // sweeps run until no cluster moves
  std::vector<std::vector<ColumnRef>> slots(
      static_cast<size_t>(target.numArrays));
  for (int a = 0; a < target.numArrays; ++a)
    slots[static_cast<size_t>(a)] = {{a, 0}, {a, 1}};

  int spilled = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.inputs = 8;
    spec.ops = 120;
    ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));
    OptMapping m;
    try {
      m = mapOptimized(g, target, options);
    } catch (const MappingError&) {
      continue;  // more clusters than the capped arrays hold
    }
    std::vector<ColumnRef> cols = clusterColumns(m);
    if (expectColumnsFilledPerArray(cols, slots) > 1) spilled++;

    // Kernighan-Lin fixpoint: moving one cluster to another array with
    // room never lowers its operand edges to clusters on other arrays.
    std::vector<int> load(static_cast<size_t>(target.numArrays), 0);
    for (ColumnRef c : cols) load[static_cast<size_t>(c.arrayId)]++;
    const auto& clusterOf = m.clustering.clusterOf;
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      std::vector<long> crossing(static_cast<size_t>(target.numArrays), 0);
      for (NodeId v = g.firstId(); v < g.endId(); ++v) {
        if (!g.node(v).isOp()) continue;
        for (NodeId u : g.node(v).users) {
          int cv = clusterOf[static_cast<size_t>(v)];
          int cu = clusterOf[static_cast<size_t>(u)];
          if (cv == cu || (static_cast<size_t>(cv) != ci &&
                           static_cast<size_t>(cu) != ci))
            continue;
          int other = static_cast<size_t>(cv) == ci ? cu : cv;
          int otherArray = cols[static_cast<size_t>(other)].arrayId;
          for (int a = 0; a < target.numArrays; ++a)
            if (a != otherArray) crossing[static_cast<size_t>(a)]++;
        }
      }
      int cur = cols[ci].arrayId;
      for (int a = 0; a < target.numArrays; ++a)
        if (a != cur && load[static_cast<size_t>(a)] < 2) {
          EXPECT_GE(crossing[static_cast<size_t>(a)],
                    crossing[static_cast<size_t>(cur)])
              << "cluster " << ci << " cuts fewer edges on array " << a;
        }
    }
  }
  EXPECT_GT(spilled, 10) << "caps too loose: spill not exercised";
}

TEST(OptMapper, SpillSkipsColumnsTheFaultMapKills) {
  ir::Graph g = workloads::buildBitweaving({16});
  isa::TargetSpec target = smallTarget(32);
  device::FaultMap map(target.numArrays, target.rows(), target.cols());
  const std::set<ColumnRef> dead = {{0, 0}, {0, 2}, {1, 1}};
  for (ColumnRef c : dead) killColumn(map, c.arrayId, c.col);
  FaultPolicy faults{&map, 0};
  OptMapperOptions options;
  options.maxColumnsPerArray = 3;

  // Usable columns per array in column order, at most three per array;
  // the dead columns are not among them.
  std::vector<std::vector<ColumnRef>> slots(
      static_cast<size_t>(target.numArrays));
  for (int a = 0; a < target.numArrays; ++a)
    for (int col = 0; col < target.cols() &&
                      slots[static_cast<size_t>(a)].size() < 3;
         ++col)
      if (!dead.count({a, col}))
        slots[static_cast<size_t>(a)].push_back({a, col});

  std::vector<ColumnRef> cols =
      clusterColumns(mapOptimized(g, target, options, faults));
  EXPECT_GT(expectColumnsFilledPerArray(cols, slots), 1)
      << "kernel fits one capped array";
}

// ------------------------------------------------- Program invariants

TEST(Codegen, ProgramInstructionsValidate) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(64);
  for (auto strategy : {Strategy::Naive, Strategy::Optimized}) {
    CompileOptions opts;
    opts.strategy = strategy;
    auto compiled = compile(g, target, opts);
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

TEST(Codegen, RoundsMergeAcrossColumns) {
  // The optimized flow emits each schedule step in column-parallel rounds
  // and flushes the values a round displaces into a row its columns
  // share, so independent ops in different columns that activate the
  // same rows fold into one CIM read.
  workloads::SobelSpec spec;
  spec.width = 16;
  ir::Graph g = transforms::canonicalize(workloads::buildSobel(spec));
  auto compiled = compile(g, smallTarget(1024));
  long cimReads = 0, columnOps = 0;
  for (const auto& inst : compiled.program.instructions)
    if (inst.isCimRead()) {
      ++cimReads;
      columnOps += static_cast<long>(inst.colOps.size());
    }
  EXPECT_GE(columnOps, 6 * cimReads)
      << columnOps << " column ops in " << cimReads << " CIM reads";
  // The round floor bounds the CIM reads from below.
  EXPECT_GT(compiled.program.stats.roundFloor, 0);
  EXPECT_GE(cimReads, compiled.program.stats.roundFloor);
}

/// Checks a schedule of `g` under `plan` the way codegen relies on it,
/// without checkSchedule: its steps partition the op nodes, no op shares
/// a step with one of its producers or runs before it, and its round
/// floor is at least both floors that hold for every schedule.
void expectScheduleHolds(const ir::Graph& g, const PlacementPlan& plan,
                         const Schedule& schedule, const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<long> stepOf(g.numNodes(), -1);
  size_t listed = 0;
  for (size_t s = 0; s < schedule.steps(); ++s)
    for (ir::NodeId op : schedule.step(s)) {
      ASSERT_TRUE(g.node(op).isOp()) << op;
      ASSERT_EQ(stepOf[static_cast<size_t>(op)], -1) << op << " listed twice";
      stepOf[static_cast<size_t>(op)] = static_cast<long>(s);
      ++listed;
    }
  ASSERT_EQ(listed, g.opCount());
  for (ir::NodeId op : g.opNodes())
    for (ir::NodeId o : g.node(op).operands) {
      if (!g.node(o).isOp()) continue;
      ASSERT_LT(stepOf[static_cast<size_t>(o)],
                stepOf[static_cast<size_t>(op)])
          << "op " << op << " and its producer " << o;
    }
  long floor = roundFloor(schedule, plan);
  EXPECT_GE(floor, busiestColumn(g, plan));
  EXPECT_GE(floor, ir::criticalPathLength(g));
}

/// Both producers hold, and the compile's stats report the floors of the
/// schedule chooseSchedule picks.
void expectSchedulesOf(const ir::Graph& g, const CompileResult& compiled,
                       const std::string& what) {
  const PlacementPlan& plan = compiled.plan;
  expectScheduleHolds(g, plan, bLevelWaves(g, plan), what + " b-level");
  expectScheduleHolds(g, plan, tLevelWaves(g, plan), what + " t-level");
  const CodegenStats& stats = compiled.program.stats;
  EXPECT_EQ(stats.roundFloor, roundFloor(chooseSchedule(g, plan), plan))
      << what;
  EXPECT_EQ(stats.busiestColumn, busiestColumn(g, plan)) << what;
  EXPECT_EQ(stats.criticalPath, ir::criticalPathLength(g)) << what;
}

TEST(Schedule, WaveProducersHoldOnTheFuzzCorpus) {
  // The CI default shard's seeds, optimized on 256^2 ReRAM.
  for (uint64_t seed = 1000; seed < 1200; ++seed) {
    workloads::RandomDagSpec spec = testing::sampleDagSpec(seed);
    ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));
    auto target = isa::TargetSpec::square(
        256, device::TechnologyParams::reRam(), spec.maxArity);
    expectSchedulesOf(g, compile(g, target), strCat("seed ", seed));
  }
}

TEST(Schedule, WaveProducersHoldOnThePaperKernels) {
  workloads::BitweavingSpec bw;
  bw.bits = 16;
  bw.segments = 32;
  workloads::SobelSpec sobel;
  sobel.width = 16;
  const std::pair<const char*, ir::Graph> kernels[] = {
      {"Bitweaving", workloads::buildBitweaving(bw)},
      {"Sobel", workloads::buildSobel(sobel)},
      {"AES", workloads::buildAes({10})}};
  for (const auto& [name, raw] : kernels)
    for (auto [dim, mra] : {std::pair{1024, 2}, std::pair{512, 4}}) {
      auto target = isa::TargetSpec::square(
          dim, device::TechnologyParams::reRam(), mra);
      FlowResult flow = compileFlow(raw, target, FlowOptions{});
      expectSchedulesOf(flow.graph, flow.compiled,
                        strCat(name, " ", dim, "^2 MRA ", mra));
    }
}

TEST(Schedule, ChooseTakesTheLowerFloorAndBLevelOnATie) {
  // A chain x1 -> x2 -> x3 beside ops whose waves differ by producer: y
  // (t-level 1, b-level 1) and w -> w2 (t-levels 1, 2; b-levels 2, 1).
  // Waves by b-level: {x1}, {x2, w}, {x3, y, w2}; by t-level:
  // {x1, y, w}, {x2, w2}, {x3}.
  ir::Graph g;
  ir::NodeId a = g.addInput("a"), b = g.addInput("b");
  ir::NodeId x1 = g.addOp(ir::OpKind::And, {a, b});
  ir::NodeId x2 = g.addOp(ir::OpKind::And, {x1, a});
  ir::NodeId x3 = g.addOp(ir::OpKind::And, {x2, b});
  ir::NodeId y = g.addOp(ir::OpKind::Or, {a, b});
  ir::NodeId w = g.addOp(ir::OpKind::Not, {a});
  ir::NodeId w2 = g.addOp(ir::OpKind::Xor, {w, b});
  for (ir::NodeId out : {x3, y, w2}) g.markOutput(out);
  auto planWith = [&](std::map<ir::NodeId, int> columns) {
    PlacementPlan plan;
    plan.opLocation.resize(g.numNodes());
    plan.leafColumns.resize(g.numNodes());
    for (auto [op, col] : columns) plan.opLocation[op] = {0, col};
    return plan;
  };
  struct Case {
    const char* name;
    PlacementPlan plan;
    long bFloor, tFloor;
    bool picksTLevel;
  };
  const Case cases[] = {
      // x3 and y share a column: b-level's last wave needs two rounds.
      {"t-level lower",
       planWith({{x1, 1}, {x2, 2}, {x3, 0}, {y, 0}, {w, 3}, {w2, 4}}), 4,
       3, true},
      // x1 and w share a column: t-level's first wave needs two rounds.
      {"b-level lower",
       planWith({{x1, 0}, {x2, 1}, {x3, 2}, {y, 3}, {w, 0}, {w2, 4}}), 3,
       4, false},
      // Everything in one column: both floors are the op count.
      {"tie",
       planWith({{x1, 0}, {x2, 0}, {x3, 0}, {y, 0}, {w, 0}, {w2, 0}}), 6,
       6, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Schedule bl = bLevelWaves(g, c.plan), tl = tLevelWaves(g, c.plan);
    ASSERT_EQ(roundFloor(bl, c.plan), c.bFloor);
    ASSERT_EQ(roundFloor(tl, c.plan), c.tFloor);
    EXPECT_EQ(chooseSchedule(g, c.plan), c.picksTLevel ? tl : bl);
  }
}

TEST(Schedule, CodegenRejectsAnInvalidSchedule) {
  ir::Graph g;
  ir::NodeId a = g.addInput("a"), b = g.addInput("b");
  ir::NodeId x = g.addOp(ir::OpKind::And, {a, b});
  ir::NodeId y = g.addOp(ir::OpKind::Or, {x, b});
  g.markOutput(y);
  auto target = smallTarget(64);
  PlacementPlan plan = mapOptimized(g, target).plan;
  Schedule ok = bLevelWaves(g, plan);
  EXPECT_NO_THROW(generateCode(g, target, plan, ok));
  Schedule oneStep;  // y beside its producer
  oneStep.ops = {x, y};
  oneStep.stepStart = {0, 2};
  if (plan.opLocation[y] < plan.opLocation[x]) oneStep.ops = {y, x};
  EXPECT_THROW(generateCode(g, target, plan, oneStep), Error);
  Schedule reversed;  // y before its producer
  reversed.ops = {y, x};
  reversed.stepStart = {0, 1, 2};
  EXPECT_THROW(generateCode(g, target, plan, reversed), Error);
  Schedule missing;  // x never runs
  missing.ops = {y};
  missing.stepStart = {0, 1};
  EXPECT_THROW(generateCode(g, target, plan, missing), Error);
}

TEST(Codegen, ChainedOperandsShareShifts) {
  // A round's ops whose chained operands need the same rotation share
  // one shift, so most chained operands arrive without a shift of their
  // own.
  workloads::SobelSpec spec;
  spec.width = 16;
  ir::Graph g = transforms::canonicalize(workloads::buildSobel(spec));
  auto compiled = compile(g, smallTarget(1024));
  const CodegenStats& stats = compiled.program.stats;
  EXPECT_GT(stats.chainedOperands, 0);
  EXPECT_LE(4 * stats.shifts, stats.chainedOperands)
      << stats.shifts << " shifts for " << stats.chainedOperands
      << " chained operands";
}

TEST(Codegen, AlignedWritesAvoidFaultsAndSpareRows) {
  // Under a fault map the round flush aligns only on rows that are
  // usable in every column it writes and lie below the spare region.
  auto target =
      isa::TargetSpec::square(512, device::TechnologyParams::sttMram(), 2);
  device::FaultMapOptions fopts;
  fopts.seed = 11;
  fopts.stuckDensity = 0.01;
  fopts.weakDensity = 0.005;
  auto map = device::FaultMap::generate(target.numArrays, target.rows(),
                                        target.cols(), fopts);
  CompileOptions opts;
  opts.faults = {&map, 16};
  const int mainRowLimit = target.rows() - 16;
  workloads::SobelSpec sobel;
  sobel.width = 16;
  for (const ir::Graph& g :
       {transforms::canonicalize(workloads::buildBitweaving({16, 32})),
        transforms::canonicalize(workloads::buildSobel(sobel))}) {
    auto compiled = compile(g, target, opts);
    const auto& program = compiled.program;
    long alignedFlushes = 0;
    for (size_t i = 0; i < program.instructions.size(); ++i) {
      const isa::Instruction& inst = program.instructions[i];
      if (inst.kind != isa::InstKind::Write || inst.columns.size() < 2)
        continue;
      alignedFlushes += !program.hostWriteValues.contains(i);
      int row = inst.rows.front();
      EXPECT_LT(row, mainRowLimit) << inst.toString();
      for (int col : inst.columns)
        EXPECT_TRUE(map.isUsable(inst.arrayId, row, col))
            << inst.toString() << ": column " << col;
    }
    EXPECT_GT(alignedFlushes, 0);
  }
}

TEST(Codegen, ShiftGroupFlushIntoAFullColumnCompiles) {
  // A shift group flushes what its rotation would lose. On this 4-row
  // target the flush meets a full column whose only droppable replica
  // holds a value that only ops the round already emitted pinned.
  // Pinning the whole round until its end made the compile throw
  // "cannot flush value 22: column 2 of array 0 is full and holds no
  // droppable replica".
  ir::Graph g = workloads::buildRandomDag(testing::sampleDagSpec(36));
  auto target = smallTarget(64, 4);
  target.geometry.rows = 4;
  target.numArrays = 1;
  FlowResult flow = compileFlow(g, target, {});
  EXPECT_GT(flow.compiled.program.stats.shifts, 0);
}

TEST(Codegen, RoundIsPlannedAgainAfterAMove) {
  // Naive placement with lazy write-back on 16-row columns: a full
  // column drops a replica that an operand's movement had prepared, so
  // planning one of the rounds moves that operand again, which rotates
  // the row buffer, and planRound plans the round a second time. With the
  // second pass replaced by an assert, this compile throws.
  workloads::RandomDagSpec spec;
  spec.seed = 55;
  spec.ops = 20;
  spec.maxArity = 4;
  spec.inputs = 10;
  ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));
  CompileOptions options;
  options.strategy = Strategy::Naive;
  options.eagerWriteback = false;
  auto compiled = compile(g, smallTarget(16, 4), options);
  EXPECT_GT(compiled.program.stats.shifts, 0);
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
  EXPECT_EQ(a.hostWrites,
            static_cast<long>(compiled.program.hostWriteValues.size()));
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
