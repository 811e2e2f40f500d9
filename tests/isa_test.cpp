// Unit tests for the CIM ISA: construction and the assembly printer
// (format of paper Fig. 4). Instruction legality is the verifier's
// (verifier_test's InstructionRules cases).
#include <gtest/gtest.h>

#include "arraymodel/array_model.h"
#include "isa/instruction.h"
#include "isa/target.h"

namespace sherlock::isa {
namespace {

TEST(Instruction, PrintMatchesPaperFormat) {
  EXPECT_EQ(makeWrite(0, {4, 8, 12, 16}, 932).toString(),
            "write [0][4,8,12,16][932]");
  EXPECT_EQ(makePlainRead(0, {1, 5, 9, 13}, 5).toString(),
            "read [0][1,5,9,13][5]");
  EXPECT_EQ(makeShift(0, ShiftDirection::Right, 3).toString(),
            "shift [0] R[3]");
  EXPECT_EQ(makeShift(1, ShiftDirection::Left, 17).toString(),
            "shift [1] L[17]");
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

TEST(Instruction, XferFormat) {
  EXPECT_EQ(makeXfer(1, 4, 17, 3, 6, 30).toString(),
            "xfer [1][4][17] -> [3][6][30]");
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
