// Unit tests for the CIM ISA: construction, validation, and the assembly
// printer/parser round trip (format of paper Fig. 4).
#include <gtest/gtest.h>

#include "arraymodel/array_model.h"
#include "isa/instruction.h"
#include "isa/target.h"
#include "support/diagnostics.h"

namespace sherlock::isa {
namespace {

TEST(Instruction, PrintMatchesPaperFormat) {
  EXPECT_EQ(makeWrite(0, {4, 8, 12, 16}, 932).toString(),
            "write [0][4,8,12,16][932]");
  EXPECT_EQ(makePlainRead(0, {1, 5, 9, 13}, 5).toString(),
            "read [0][1,5,9,13][5]");
  EXPECT_EQ(makeShift(0, ShiftDirection::Right, 3).toString(),
            "shift [0] R[3]");
  EXPECT_EQ(
      makeCimRead(0, {4, 8, 12, 16}, {933, 934},
                  {ir::OpKind::Xor, ir::OpKind::And, ir::OpKind::Or,
                   ir::OpKind::Xor})
          .toString(),
      "read [0][4,8,12,16][933,934] [XOR,AND,OR,XOR]");
}

TEST(Instruction, ChainedOperandSuffix) {
  auto inst = makeCimRead(1, {7}, {12}, {ir::OpKind::Or}, {true});
  EXPECT_EQ(inst.toString(), "read [1][7][12] [OR+B]");
}

TEST(Instruction, MoveFormat) {
  EXPECT_EQ(makeMove(0, 3, 2, 9).toString(), "move [0][3] -> [2][9]");
}

TEST(Instruction, XferFormat) {
  EXPECT_EQ(makeXfer(1, 4, 17, 3, 6, 30).toString(),
            "xfer [1][4][17] -> [3][6][30]");
}

TEST(Instruction, XferParseRoundTrip) {
  Instruction inst = makeXfer(0, 12, 5, 2, 7, 41);
  EXPECT_EQ(Instruction::parse(inst.toString()), inst);
  EXPECT_THROW(Instruction::parse("xfer [0][1,2][3] -> [1][4][5]"), Error);
  EXPECT_THROW(Instruction::parse("xfer [0][1][3,4] -> [1][4][5]"), Error);
}

TEST(Instruction, ParseRoundTripAllKinds) {
  std::vector<Instruction> program{
      makeWrite(0, {4, 8}, 932),
      makePlainRead(0, {1, 5}, 5),
      makeCimRead(0, {4, 8}, {933, 934}, {ir::OpKind::Xor, ir::OpKind::And},
                  {true, false}),
      makeShift(1, ShiftDirection::Left, 17),
      makeMove(0, 3, 2, 9),
      makeXfer(0, 3, 8, 2, 9, 12),
  };
  auto parsed = parseAssembly(toAssembly(program));
  EXPECT_EQ(parsed, program);
}

TEST(Instruction, ParseIgnoresCommentsAndBlanks) {
  auto program = parseAssembly(
      "# header comment\n\n  write [0][1][2]  # trailing\n\n");
  ASSERT_EQ(program.size(), 1u);
  EXPECT_EQ(program[0], makeWrite(0, {1}, 2));
}

TEST(Instruction, ParseRejectsGarbage) {
  EXPECT_THROW(Instruction::parse("frobnicate [0][1][2]"), Error);
  EXPECT_THROW(Instruction::parse("read [0][1"), Error);
  EXPECT_THROW(Instruction::parse("read [0][1,][2]"), Error);
}

TEST(Validation, BoundsChecked) {
  int arrays = 2, rows = 16, cols = 16;
  EXPECT_NO_THROW(validateInstruction(makeWrite(1, {0, 15}, 15), arrays,
                                      rows, cols));
  EXPECT_THROW(validateInstruction(makeWrite(2, {0}, 0), arrays, rows, cols),
               Error);
  EXPECT_THROW(
      validateInstruction(makeWrite(0, {16}, 0), arrays, rows, cols), Error);
  EXPECT_THROW(
      validateInstruction(makeWrite(0, {0}, 16), arrays, rows, cols), Error);
}

TEST(Validation, OutOfRangeMessages) {
  auto message = [](const Instruction& inst) -> std::string {
    try {
      validateInstruction(inst, 2, 16, 16);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message(makeCimRead(0, {3}, {2, 16}, {ir::OpKind::And})),
            "row 16 out of range");
  EXPECT_EQ(message(makeWrite(0, {17}, 0)), "column 17 out of range");
  EXPECT_EQ(message(makeWrite(2, {0}, 0)), "array id 2 out of range");
}

TEST(Validation, XferBoundsChecked) {
  int arrays = 4, rows = 16, cols = 16;
  EXPECT_NO_THROW(
      validateInstruction(makeXfer(0, 0, 0, 3, 15, 15), arrays, rows, cols));
  // Each endpoint coordinate is checked: destination array, column, row,
  // then the source side.
  EXPECT_THROW(
      validateInstruction(makeXfer(0, 0, 0, 4, 0, 0), arrays, rows, cols),
      Error);
  EXPECT_THROW(
      validateInstruction(makeXfer(0, 0, 0, 1, 16, 0), arrays, rows, cols),
      Error);
  EXPECT_THROW(
      validateInstruction(makeXfer(0, 0, 0, 1, 0, 16), arrays, rows, cols),
      Error);
  EXPECT_THROW(
      validateInstruction(makeXfer(0, 16, 0, 1, 0, 0), arrays, rows, cols),
      Error);
  EXPECT_THROW(
      validateInstruction(makeXfer(0, 0, 16, 1, 0, 0), arrays, rows, cols),
      Error);
}

TEST(Validation, OrderingAndUniqueness) {
  int arrays = 1, rows = 16, cols = 16;
  Instruction bad = makeWrite(0, {5, 3}, 0);  // descending columns
  EXPECT_THROW(validateInstruction(bad, arrays, rows, cols), Error);
  Instruction dup = makeCimRead(0, {1}, {3, 3}, {ir::OpKind::And});
  EXPECT_THROW(validateInstruction(dup, arrays, rows, cols), Error);
}

TEST(Validation, OpsMustParallelColumns) {
  Instruction inst = makeCimRead(0, {1, 2}, {3, 4}, {ir::OpKind::And});
  EXPECT_THROW(validateInstruction(inst, 1, 16, 16), Error);
}

TEST(Validation, RowlessReadRequiresFullChaining) {
  Instruction ok = makeCimRead(0, {1}, {}, {ir::OpKind::Not}, {true});
  EXPECT_NO_THROW(validateInstruction(ok, 1, 16, 16));
  Instruction bad = makeCimRead(0, {1}, {}, {ir::OpKind::Not}, {false});
  EXPECT_THROW(validateInstruction(bad, 1, 16, 16), Error);
}

TEST(Target, GridHopsAreManhattanDistance) {
  auto t = TargetSpec::square(64, device::TechnologyParams::reRam())
               .withGrid(arraymodel::GridConfig{2, 3});
  EXPECT_EQ(t.numArrays, 6);
  EXPECT_EQ(t.hopsBetween(0, 0), 0);
  EXPECT_EQ(t.hopsBetween(0, 1), 1);   // (0,0) -> (0,1)
  EXPECT_EQ(t.hopsBetween(0, 5), 3);   // (0,0) -> (1,2)
  EXPECT_EQ(t.hopsBetween(5, 0), 3);   // symmetric
  // Unconfigured targets keep the historical flat-bus cost: one hop
  // between distinct arrays, zero within one.
  auto flat = TargetSpec::square(64, device::TechnologyParams::reRam());
  EXPECT_EQ(flat.hopsBetween(0, 0), 0);
  EXPECT_EQ(flat.hopsBetween(0, 1), 1);
}

TEST(Target, GridConfigParse) {
  auto g = arraymodel::GridConfig::parse("2x3");
  EXPECT_EQ(g.rows, 2);
  EXPECT_EQ(g.cols, 3);
  EXPECT_EQ(g.toString(), "2x3");
  EXPECT_THROW(arraymodel::GridConfig::parse("22"), Error);
  EXPECT_THROW(arraymodel::GridConfig::parse("x3"), Error);
  EXPECT_THROW(arraymodel::GridConfig::parse("2x"), Error);
  EXPECT_THROW(arraymodel::GridConfig::parse("0x4"), Error);
  EXPECT_ANY_THROW(arraymodel::GridConfig::parse("axb"));
}

TEST(Target, MraLimitCappedByTechnology) {
  auto t = TargetSpec::square(512, device::TechnologyParams::reRam(), 32);
  EXPECT_EQ(t.mraLimit(), t.tech.maxActivatedRows);
  auto t2 = TargetSpec::square(512, device::TechnologyParams::reRam(), 2);
  EXPECT_EQ(t2.mraLimit(), 2);
}

TEST(Target, SquarePairsDataWidth) {
  auto t = TargetSpec::square(256, device::TechnologyParams::sttMram());
  EXPECT_EQ(t.rows(), 256);
  EXPECT_EQ(t.cols(), 256);
  EXPECT_EQ(t.geometry.dataWidthBits, 1024);  // Table 1 pairing: 4N
}

TEST(ArrayModel, LatencyGrowsWithArraySize) {
  auto tech = device::TechnologyParams::reRam();
  arraymodel::ArrayCostModel small(arraymodel::ArrayGeometry::square(128),
                                   tech);
  arraymodel::ArrayCostModel large(arraymodel::ArrayGeometry::square(1024),
                                   tech);
  EXPECT_LT(small.readLatencyNs(), large.readLatencyNs());
  EXPECT_LT(small.readEnergyPj(2, 1), large.readEnergyPj(2, 1));
}

TEST(ArrayModel, EnergyScalesWithRowsAndColumns) {
  auto tech = device::TechnologyParams::reRam();
  arraymodel::ArrayCostModel m(arraymodel::ArrayGeometry::square(512), tech);
  EXPECT_LT(m.readEnergyPj(2, 1), m.readEnergyPj(4, 1));
  EXPECT_LT(m.readEnergyPj(2, 1), m.readEnergyPj(2, 8));
  EXPECT_LT(m.writeEnergyPj(1), m.writeEnergyPj(16));
}

TEST(ArrayModel, PostedWriteCompletionExceedsIssue) {
  auto tech = device::TechnologyParams::reRam();
  arraymodel::ArrayCostModel m(arraymodel::ArrayGeometry::square(512), tech);
  EXPECT_GT(m.writeCompletionNs(),
            m.writeIssueLatencyNs() + tech.writeLatencyNs * 0.9);
  EXPECT_GT(m.shiftLatencyNs(100), m.shiftLatencyNs(1));
}

}  // namespace
}  // namespace sherlock::isa

namespace sherlock::isa {
namespace {

TEST(ArrayModel, AreaScalesWithGeometryAndCellSize) {
  auto reram = device::TechnologyParams::reRam();
  auto stt = device::TechnologyParams::sttMram();
  arraymodel::ArrayCostModel small(arraymodel::ArrayGeometry::square(128),
                                   reram);
  arraymodel::ArrayCostModel big(arraymodel::ArrayGeometry::square(512),
                                 reram);
  EXPECT_GT(big.cellAreaMm2(), small.cellAreaMm2() * 10);
  // 4F^2 crossbar ReRAM beats 36F^2 STT-MRAM cells at equal geometry.
  arraymodel::ArrayCostModel sttModel(
      arraymodel::ArrayGeometry::square(512), stt);
  EXPECT_LT(big.cellAreaMm2(), sttModel.cellAreaMm2());
  EXPECT_GT(big.peripheryAreaMm2(), 0.0);
  EXPECT_GT(big.totalAreaMm2(),
            big.cellAreaMm2() + big.peripheryAreaMm2());
}

}  // namespace
}  // namespace sherlock::isa
