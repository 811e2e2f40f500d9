// Unit and property tests for the persistent cell-fault model: seeded
// generation is deterministic and byte-reproducible, the text format
// round-trips losslessly, endurance wear converts rows to stuck faults,
// and — the placement contract — compiled programs never read or write
// a faulty cell on either mapper.
#include <gtest/gtest.h>

#include "dag_fuzz.h"
#include "device/faultmap.h"
#include "mapping/compiler.h"
#include "support/diagnostics.h"
#include "transforms/passes.h"
#include "workloads/random_dag.h"

namespace sherlock::device {
namespace {

FaultMapOptions denseOptions() {
  FaultMapOptions o;
  o.seed = 42;
  o.stuckDensity = 0.05;
  o.weakDensity = 0.03;
  return o;
}

TEST(FaultMap, GenerationIsDeterministic) {
  FaultMap a = FaultMap::generate(4, 64, 64, denseOptions());
  FaultMap b = FaultMap::generate(4, 64, 64, denseOptions());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.toText(), b.toText());

  FaultMapOptions other = denseOptions();
  other.seed = 43;
  FaultMap c = FaultMap::generate(4, 64, 64, other);
  EXPECT_NE(a, c);
}

TEST(FaultMap, DensitiesMatchRequested) {
  FaultMap m = FaultMap::generate(8, 128, 128, denseOptions());
  double stuck = static_cast<double>(m.stuckCellCount()) / m.totalCells();
  double weak = static_cast<double>(m.weakCellCount()) / m.totalCells();
  // 131072 cells: binomial deviation is well under 20% relative.
  EXPECT_NEAR(stuck, 0.05, 0.01);
  EXPECT_NEAR(weak, 0.03, 0.006);
  // Stuck cells split between LRS and HRS polarities.
  long lrs = 0, hrs = 0;
  for (int a = 0; a < m.numArrays(); ++a)
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c) {
        if (m.faultAt(a, r, c) == CellFault::StuckAtLrs) ++lrs;
        if (m.faultAt(a, r, c) == CellFault::StuckAtHrs) ++hrs;
      }
  EXPECT_GT(lrs, 0);
  EXPECT_GT(hrs, 0);
  EXPECT_EQ(lrs + hrs, m.stuckCellCount());
}

TEST(FaultMap, StuckBitFollowsStateConvention) {
  FaultMap m(1, 8, 8);
  m.setFault(0, 1, 2, CellFault::StuckAtLrs);
  m.setFault(0, 3, 4, CellFault::StuckAtHrs);
  // LRS is logic '0', HRS is logic '1' (paper Sec. 2.1 convention).
  EXPECT_FALSE(m.stuckBit(0, 1, 2));
  EXPECT_TRUE(m.stuckBit(0, 3, 4));
  EXPECT_TRUE(m.isStuck(0, 1, 2));
  EXPECT_FALSE(m.isUsable(0, 1, 2));
  EXPECT_FALSE(m.isWeak(0, 1, 2));

  m.setFault(0, 5, 6, CellFault::Weak);
  EXPECT_TRUE(m.isWeak(0, 5, 6));
  EXPECT_FALSE(m.isStuck(0, 5, 6));
  EXPECT_FALSE(m.isUsable(0, 5, 6));  // placement treats weak as unusable
}

TEST(FaultMap, UsableCellsPerColumnHonorsRowLimit) {
  FaultMap m(2, 16, 4);
  using Counts = std::vector<int>;
  EXPECT_EQ(m.usableCellsPerColumn(0, 16), (Counts{16, 16, 16, 16}));
  EXPECT_EQ(m.usableCellsPerColumn(0, 10), (Counts{10, 10, 10, 10}));
  EXPECT_EQ(m.usableCellsPerColumn(1, 0), (Counts{0, 0, 0, 0}));
  m.setFault(0, 2, 0, CellFault::StuckAtHrs);
  m.setFault(0, 12, 0, CellFault::Weak);
  m.setFault(1, 3, 2, CellFault::StuckAtLrs);
  EXPECT_EQ(m.usableCellsPerColumn(0, 16), (Counts{14, 16, 16, 16}));
  // Row 12 is past the limit.
  EXPECT_EQ(m.usableCellsPerColumn(0, 10), (Counts{9, 10, 10, 10}));
  EXPECT_EQ(m.usableCellsPerColumn(1, 16), (Counts{16, 16, 15, 16}));
  EXPECT_THROW(m.usableCellsPerColumn(0, 17), Error);
}

TEST(FaultMap, EnduranceWearConvertsRowToStuck) {
  FaultMapOptions o;
  o.rowWriteBudget = 3;
  FaultMap m(1, 8, 4, o);
  m.setFault(0, 5, 1, CellFault::Weak);
  m.setFault(0, 5, 2, CellFault::StuckAtHrs);

  EXPECT_EQ(m.noteRowWrite(0, 5), 1);
  EXPECT_EQ(m.noteRowWrite(0, 5), 2);
  EXPECT_EQ(m.noteRowWrite(0, 5), 3);
  EXPECT_FALSE(m.rowWornOut(0, 5));
  EXPECT_EQ(m.faultAt(0, 5, 0), CellFault::None);

  // The write that exceeds the budget wears the row out: every cell that
  // still functioned (including the weak one) ends SET-stuck, while the
  // already-stuck HRS cell keeps its polarity.
  EXPECT_EQ(m.noteRowWrite(0, 5), 4);
  EXPECT_TRUE(m.rowWornOut(0, 5));
  EXPECT_EQ(m.rowWrites(0, 5), 4);
  EXPECT_EQ(m.faultAt(0, 5, 0), CellFault::StuckAtLrs);
  EXPECT_EQ(m.faultAt(0, 5, 1), CellFault::StuckAtLrs);
  EXPECT_EQ(m.faultAt(0, 5, 2), CellFault::StuckAtHrs);
  // Other rows are untouched.
  EXPECT_EQ(m.rowWrites(0, 4), 0);
  EXPECT_EQ(m.faultAt(0, 4, 0), CellFault::None);

  // Unlimited endurance (budget 0) never wears out.
  FaultMap eternal(1, 8, 4);
  for (int i = 0; i < 100; ++i) eternal.noteRowWrite(0, 0);
  EXPECT_FALSE(eternal.rowWornOut(0, 0));
  EXPECT_EQ(eternal.faultAt(0, 0, 0), CellFault::None);
}

TEST(FaultMap, TextRoundTripPreservesEveryFault) {
  FaultMapOptions o = denseOptions();
  o.rowWriteBudget = 100;
  FaultMap m = FaultMap::generate(3, 48, 32, o);
  m.noteRowWrite(1, 7);
  m.noteRowWrite(1, 7);
  m.noteRowWrite(2, 0);

  std::string text = m.toText();
  FaultMap back = FaultMap::fromText(text);
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.toText(), text);  // serialization is a fixed point
  EXPECT_EQ(back.rowWrites(1, 7), 2);
  EXPECT_EQ(back.options(), o);
}

TEST(FaultMap, FromTextRejectsMalformedInput) {
  EXPECT_THROW(FaultMap::fromText(""), Error);
  EXPECT_THROW(FaultMap::fromText("not a fault map\n"), Error);

  FaultMap m = FaultMap::generate(1, 8, 8, denseOptions());
  std::string text = m.toText();
  // Truncating the trailing "end" marker must be detected.
  std::string truncated = text.substr(0, text.rfind("end"));
  EXPECT_THROW(FaultMap::fromText(truncated), Error);
  // Out-of-bounds fault coordinates must be detected.
  std::string oob = truncated + "stuck-lrs 0 900 0\nend\n";
  EXPECT_THROW(FaultMap::fromText(oob), Error);
}

TEST(FaultMap, RejectsNonPhysicalOptions) {
  FaultMapOptions o;
  o.stuckDensity = -0.1;
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
  o.stuckDensity = 0.7;
  o.weakDensity = 0.7;  // sum > 1
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
  o = {};
  o.weakPdfMultiplier = 0.5;  // a multiplier < 1 would *improve* weak cells
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
  o = {};
  o.rowWriteBudget = -1;
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
}

// Placement contract (property over fuzzed DAGs): with a fault map in
// effect, no instruction of the compiled program senses or programs a
// faulty cell — stuck *or* weak — on either mapper. This is the
// load-bearing guarantee behind spare-row repair: everything else
// (guarded execution, P_app accounting) assumes placed cells function.
TEST(FaultMap, PlacementNeverTouchesFaultyCells) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    workloads::RandomDagSpec spec = sherlock::testing::sampleDagSpec(seed);
    ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));

    isa::TargetSpec target = isa::TargetSpec::square(
        64, TechnologyParams::reRam(), spec.maxArity);
    FaultMapOptions o;
    o.seed = seed * 977;
    o.stuckDensity = 0.04;
    o.weakDensity = 0.02;
    FaultMap map = FaultMap::generate(target.numArrays, target.rows(),
                                      target.cols(), o);

    for (mapping::Strategy strategy :
         {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
      SCOPED_TRACE(strategy == mapping::Strategy::Naive ? "naive" : "opt");
      mapping::CompileOptions copts;
      copts.strategy = strategy;
      copts.faults.map = &map;
      copts.faults.spareRows = 4;
      mapping::CompileResult compiled = mapping::compile(g, target, copts);

      for (const isa::Instruction& inst : compiled.program.instructions) {
        if (inst.kind != isa::InstKind::Read &&
            inst.kind != isa::InstKind::Write)
          continue;
        for (int col : inst.columns)
          for (int row : inst.rows)
            ASSERT_TRUE(map.isUsable(inst.arrayId, row, col))
                << cellFaultName(map.faultAt(inst.arrayId, row, col))
                << " cell touched at array " << inst.arrayId << " row "
                << row << " col " << col << " by: " << inst.toString();
      }
    }
  }
}

}  // namespace
}  // namespace sherlock::device
