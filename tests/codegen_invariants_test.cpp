// Cross-cutting structural invariants of generated programs, swept over a
// grid of random DAGs, mapping strategies, targets and codegen options.
// Complements pipeline_test's functional verification with checks on the
// instruction stream itself.
#include <gtest/gtest.h>

#include <set>

#include "mapping/compiler.h"
#include "sim/simulator.h"
#include "transforms/passes.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"

namespace sherlock::mapping {
namespace {

struct GridCase {
  uint64_t seed;
  int ops;
  int maxArity;
  int dim;
  Strategy strategy;
  bool merge;
  bool eager;
};

std::string gridName(const testing::TestParamInfo<GridCase>& info) {
  const GridCase& c = info.param;
  return strCat("s", c.seed, "_ops", c.ops, "_a", c.maxArity, "_d", c.dim,
                "_", c.strategy == Strategy::Naive ? "naive" : "opt",
                c.merge ? "_mg" : "", c.eager ? "_eager" : "");
}

class ProgramInvariants : public testing::TestWithParam<GridCase> {};

TEST_P(ProgramInvariants, Hold) {
  const GridCase& c = GetParam();
  workloads::RandomDagSpec spec;
  spec.seed = c.seed;
  spec.ops = c.ops;
  spec.maxArity = c.maxArity;
  spec.inputs = 10;
  ir::Graph g =
      transforms::canonicalize(workloads::buildRandomDag(spec));

  isa::TargetSpec target = isa::TargetSpec::square(
      c.dim, device::TechnologyParams::reRam(), c.maxArity);
  CompileOptions opts;
  opts.strategy = c.strategy;
  opts.mergeInstructions = c.merge;
  opts.eagerWriteback = c.eager;
  // (1) compile proved every instruction legal for the target.
  auto compiled = compile(g, target, opts);
  const Program& p = compiled.program;

  // (2) The MRA cap holds on every read.
  for (const auto& inst : p.instructions) {
    if (inst.kind == isa::InstKind::Read) {
      EXPECT_LE(static_cast<int>(inst.rows.size()), target.mraLimit());
    }
  }

  // (3) Exactly one CIM column-op per DAG op (merging moves, never
  // duplicates or drops them).
  long colOps = 0;
  for (const auto& inst : p.instructions)
    colOps += static_cast<long>(inst.colOps.size());
  EXPECT_EQ(colOps, static_cast<long>(g.opCount()));

  // (4) Every output has a recorded cell, and host-write annotations are
  // well-formed.
  EXPECT_EQ(p.outputCells.size(),
            std::set<ir::NodeId>(g.outputs().begin(), g.outputs().end())
                .size());
  for (const auto& [idx, values] : p.hostWriteValues) {
    ASSERT_LT(idx, p.instructions.size());
    EXPECT_EQ(p.instructions[idx].kind, isa::InstKind::Write);
    EXPECT_EQ(values.size(), p.instructions[idx].columns.size());
  }

  // (5) Codegen's counters match the emitted stream. Every emission
  // addresses one column, so a read or write of k columns folded k - 1
  // emissions into the first.
  long merged = 0, plainReadColumns = 0, spillWriteColumns = 0, shifts = 0;
  for (size_t i = 0; i < p.instructions.size(); ++i) {
    const isa::Instruction& inst = p.instructions[i];
    long columns = static_cast<long>(inst.columns.size());
    if (inst.kind == isa::InstKind::Read || inst.kind == isa::InstKind::Write)
      merged += columns - 1;
    if (inst.isPlainRead()) plainReadColumns += columns;
    if (inst.kind == isa::InstKind::Write && !p.hostWriteValues.contains(i))
      spillWriteColumns += columns;
    if (inst.kind == isa::InstKind::Shift) ++shifts;
  }
  EXPECT_EQ(p.stats.mergedInstructions, merged);
  EXPECT_EQ(p.stats.plainReads, plainReadColumns);
  EXPECT_EQ(p.stats.spillWrites, spillWriteColumns);
  EXPECT_EQ(p.stats.shifts, shifts);

  // (6) The program verifies functionally.
  auto result = sim::simulate(g, target, p);
  EXPECT_TRUE(result.verified);

  // (7) Peak cell usage never exceeds the target capacity.
  EXPECT_LE(p.peakLiveCells,
            target.rows() * target.cols() * target.numArrays);
}

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  uint64_t seed = 500;
  for (int dim : {64, 256})
    for (auto strategy : {Strategy::Naive, Strategy::Optimized})
      for (bool merge : {false, true})
        for (bool eager : {false, true})
          cases.push_back(
              {seed++, 180 + dim / 2, 2 + static_cast<int>(seed % 3), dim,
               strategy, merge, eager});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ProgramInvariants, testing::ValuesIn(grid()),
                         gridName);

}  // namespace
}  // namespace sherlock::mapping

namespace sherlock::mapping {
namespace {

TEST(WaveOrder, TLevelSchedulingVerifies) {
  // Both wave producers, passed as explicit schedules to codegen's
  // optimized flow.
  for (uint64_t seed = 900; seed < 906; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 250;
    spec.maxArity = 3;
    ir::Graph g =
        transforms::canonicalize(workloads::buildRandomDag(spec));
    isa::TargetSpec target =
        isa::TargetSpec::square(128, device::TechnologyParams::reRam(), 3);
    PlacementPlan plan = mapOptimized(g, target).plan;
    for (auto producer : {bLevelWaves, tLevelWaves}) {
      auto program = generateCode(g, target, plan, producer(g, plan));
      auto result = sim::simulate(g, target, program);
      EXPECT_TRUE(result.verified) << "seed " << seed;
    }
  }
}

TEST(MultiArray, SmallArraysExerciseTransfers) {
  // 6k values on 64x64 arrays (4096 cells each) force a multi-array
  // layout; the inter-array transfer path must stay functionally correct.
  workloads::BitweavingSpec spec;
  spec.bits = 16;
  spec.segments = 32;
  ir::Graph g =
      transforms::canonicalize(workloads::buildBitweaving(spec));
  isa::TargetSpec target =
      isa::TargetSpec::square(64, device::TechnologyParams::reRam(), 2);
  target.numArrays = 16;
  for (auto strategy : {Strategy::Naive, Strategy::Optimized}) {
    CompileOptions opts;
    opts.strategy = strategy;
    auto compiled = compile(g, target, opts);
    EXPECT_GT(compiled.program.usedColumns, 64);  // spans arrays
    auto result = sim::simulate(g, target, compiled.program);
    EXPECT_TRUE(result.verified);
  }
}

}  // namespace
}  // namespace sherlock::mapping

namespace sherlock::mapping {
namespace {

TEST(NoReuseBaseline, RefetchesSharedOperands) {
  // A value consumed from another column by several ops: the no-reuse
  // (naive) flow re-fetches it per use, the optimized flow keeps the
  // replica. Both must verify.
  ir::Graph g;
  auto a = g.addInput("a");
  auto b = g.addInput("b");
  auto shared = g.addOp(ir::OpKind::Xor, {a, b});
  ir::NodeId acc = shared;
  for (int i = 0; i < 12; ++i)
    acc = g.addOp(ir::OpKind::And, {acc, shared});  // heavy reuse
  g.markOutput(acc);
  g.markOutput(shared);

  isa::TargetSpec target =
      isa::TargetSpec::square(64, device::TechnologyParams::reRam(), 2);
  CompileOptions naive, opt;
  naive.strategy = Strategy::Naive;
  opt.strategy = Strategy::Optimized;
  auto pn = compile(g, target, naive);
  auto po = compile(g, target, opt);
  EXPECT_TRUE(sim::simulate(g, target, pn.program).verified);
  EXPECT_TRUE(sim::simulate(g, target, po.program).verified);
}

TEST(Eviction, FullColumnsForceRelocation) {
  // Wide fan-in onto one column with tiny arrays stresses the eviction /
  // replica-drop fallbacks; correctness must survive.
  workloads::RandomDagSpec spec;
  spec.inputs = 20;
  spec.ops = 400;
  spec.maxArity = 4;
  spec.locality = 1.0;  // maximal reuse, values stay live
  for (uint64_t seed = 70; seed < 76; ++seed) {
    spec.seed = seed;
    ir::Graph g =
        transforms::canonicalize(workloads::buildRandomDag(spec));
    isa::TargetSpec target = isa::TargetSpec::square(
        32, device::TechnologyParams::reRam(), 4);
    target.numArrays = 8;
    for (auto strategy : {Strategy::Naive, Strategy::Optimized}) {
      CompileOptions opts;
      opts.strategy = strategy;
      auto compiled = compile(g, target, opts);
      EXPECT_TRUE(sim::simulate(g, target, compiled.program).verified)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sherlock::mapping
