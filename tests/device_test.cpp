// Unit tests for the device layer: technology parameters and the
// scouting-logic decision-failure model. The key properties mirror the
// paper's Sec. 2.2: P_DF grows with activated rows, XOR/OR sense worse
// than AND, low-TMR STT-MRAM is far less reliable than ReRAM, and the
// application failure probability composes multiplicatively.
#include <gtest/gtest.h>

#include <cmath>

#include "device/reliability.h"
#include "device/technology.h"
#include "support/diagnostics.h"

namespace sherlock::device {
namespace {

TEST(Technology, SttMramDerivedFromTable1) {
  auto p = TechnologyParams::sttMram();
  // RA = 7.5 Ohm um^2, r = 20 nm -> ~5.97 kOhm; TMR 150% -> ratio 2.5.
  EXPECT_NEAR(p.lrsOhm, 5968.0, 30.0);
  EXPECT_NEAR(p.resistanceRatio(), 2.5, 1e-9);
}

TEST(Technology, ReRamHasWiderGapThanStt) {
  auto reram = TechnologyParams::reRam();
  auto stt = TechnologyParams::sttMram();
  EXPECT_GT(reram.resistanceRatio(), stt.resistanceRatio());
}

TEST(Technology, WriteCostOrdering) {
  // ReRAM programming is slower and more energy-hungry than STT switching;
  // PCM is the slowest (melt-quench).
  auto stt = TechnologyParams::sttMram();
  auto reram = TechnologyParams::reRam();
  auto pcm = TechnologyParams::pcm();
  EXPECT_LT(stt.writeLatencyNs, reram.writeLatencyNs);
  EXPECT_LT(reram.writeLatencyNs, pcm.writeLatencyNs);
  EXPECT_LT(stt.writeEnergyPj, reram.writeEnergyPj);
}

TEST(Technology, NamesRoundTrip) {
  for (auto t :
       {Technology::SttMram, Technology::ReRam, Technology::Pcm}) {
    auto p = TechnologyParams::forTechnology(t);
    EXPECT_EQ(p.tech, t);
    EXPECT_EQ(p.name, technologyName(t));
  }
}

TEST(Reliability, SenseKindMapping) {
  EXPECT_EQ(senseKindOf(ir::OpKind::And), SenseKind::And);
  EXPECT_EQ(senseKindOf(ir::OpKind::Nand), SenseKind::And);
  EXPECT_EQ(senseKindOf(ir::OpKind::Or), SenseKind::Or);
  EXPECT_EQ(senseKindOf(ir::OpKind::Nor), SenseKind::Or);
  EXPECT_EQ(senseKindOf(ir::OpKind::Xor), SenseKind::Xor);
  EXPECT_EQ(senseKindOf(ir::OpKind::Xnor), SenseKind::Xor);
  EXPECT_EQ(senseKindOf(ir::OpKind::Not), SenseKind::PlainRead);
  EXPECT_EQ(senseKindOf(ir::OpKind::Copy), SenseKind::PlainRead);
}

// Fig. 2(b): activating more rows shrinks the sense margin and raises the
// decision-failure probability, for every sensing class and technology.
TEST(Reliability, PdfMonotoneInActivatedRows) {
  for (auto t :
       {Technology::SttMram, Technology::ReRam, Technology::Pcm}) {
    auto p = TechnologyParams::forTechnology(t);
    for (auto kind : {SenseKind::And, SenseKind::Or, SenseKind::Xor}) {
      double prev = 0.0;
      for (int rows = 2; rows <= p.maxActivatedRows; ++rows) {
        double pdf = decisionFailureProbability(p, kind, rows);
        EXPECT_GE(pdf, prev)
            << technologyName(t) << " rows " << rows;
        prev = pdf;
      }
    }
  }
}

// XOR requires multi-level parity sensing and OR senses the high-variance
// all-LRS state; both are worse than AND at equal row count.
TEST(Reliability, SenseClassOrdering) {
  for (auto t : {Technology::SttMram, Technology::ReRam}) {
    auto p = TechnologyParams::forTechnology(t);
    for (int rows = 2; rows <= 4; ++rows) {
      double pAnd = decisionFailureProbability(p, SenseKind::And, rows);
      double pOr = decisionFailureProbability(p, SenseKind::Or, rows);
      double pXor = decisionFailureProbability(p, SenseKind::Xor, rows);
      EXPECT_LT(pAnd, pOr) << technologyName(t) << " rows " << rows;
      // At r=2 XOR's extra boundary can be numerically negligible, so the
      // relation is only >= there and strictly > for wider activations.
      EXPECT_LE(pOr, pXor) << technologyName(t) << " rows " << rows;
      if (rows > 2) {
        EXPECT_LT(pOr, pXor) << technologyName(t) << " rows " << rows;
      }
    }
  }
}

// The paper's motivation for NAND-based lowering: STT-MRAM XOR/OR are
// orders of magnitude less reliable than on ReRAM, while AND stays usable.
TEST(Reliability, SttFarWorseThanReRamOnXor) {
  auto stt = TechnologyParams::sttMram();
  auto reram = TechnologyParams::reRam();
  double sttXor = decisionFailureProbability(stt, SenseKind::Xor, 2);
  double reramXor = decisionFailureProbability(reram, SenseKind::Xor, 2);
  EXPECT_GT(sttXor, reramXor * 100.0);
  // STT XOR at 2 rows should be practically unusable (~1e-4 or worse).
  EXPECT_GT(sttXor, 1e-5);
  // STT AND at 2 rows remains reasonable.
  double sttAnd = decisionFailureProbability(stt, SenseKind::And, 2);
  EXPECT_LT(sttAnd, 1e-6);
}

// The Fig. 2(b) table: P_DF per sensing class at 2 and 8 activated rows,
// and of a plain read, for both of the paper's technologies. Pinned to
// 1e-6 relative, so a change to the sensing model shows up here.
TEST(Reliability, Fig2bTable) {
  struct Point {
    Technology tech;
    SenseKind kind;
    int rows;
    double pdf;
  };
  const Point points[] = {
      {Technology::SttMram, SenseKind::And, 2, 8.040623271e-08},
      {Technology::SttMram, SenseKind::And, 8, 3.645107560e-04},
      {Technology::SttMram, SenseKind::Or, 2, 2.273068567e-04},
      {Technology::SttMram, SenseKind::Or, 8, 5.482669576e-02},
      {Technology::SttMram, SenseKind::Xor, 2, 2.273872629e-04},
      {Technology::SttMram, SenseKind::Xor, 8, 1.875467835e-01},
      {Technology::SttMram, SenseKind::PlainRead, 1, 6.234457369e-10},
      {Technology::ReRam, SenseKind::And, 2, 3.113951917e-38},
      {Technology::ReRam, SenseKind::And, 8, 2.769664058e-31},
      {Technology::ReRam, SenseKind::Or, 2, 7.701677002e-15},
      {Technology::ReRam, SenseKind::Or, 8, 1.986299711e-04},
      {Technology::ReRam, SenseKind::Xor, 2, 7.701677002e-15},
      {Technology::ReRam, SenseKind::Xor, 8, 2.962582898e-04},
      {Technology::ReRam, SenseKind::PlainRead, 1, 8.354392111e-40},
  };
  for (const Point& pt : points) {
    auto p = TechnologyParams::forTechnology(pt.tech);
    EXPECT_NEAR(decisionFailureProbability(p, pt.kind, pt.rows), pt.pdf,
                pt.pdf * 1e-6)
        << p.name << " sense class " << static_cast<int>(pt.kind) << " at "
        << pt.rows << " rows";
  }
}

TEST(Reliability, PlainReadIsMostReliable) {
  for (auto t : {Technology::SttMram, Technology::ReRam}) {
    auto p = TechnologyParams::forTechnology(t);
    double read = decisionFailureProbability(p, SenseKind::PlainRead, 1);
    double and2 = decisionFailureProbability(p, SenseKind::And, 2);
    EXPECT_LE(read, and2);
    EXPECT_GE(read, 0.0);
  }
}

TEST(Reliability, InputValidation) {
  auto p = TechnologyParams::reRam();
  EXPECT_THROW(decisionFailureProbability(p, SenseKind::And, 1), Error);
  EXPECT_THROW(decisionFailureProbability(p, SenseKind::And, 0), Error);
  EXPECT_THROW(
      decisionFailureProbability(p, SenseKind::And, p.maxActivatedRows + 1),
      Error);
}

TEST(Reliability, AccumulatorComposesCorrectly) {
  AppFailureAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.probability(), 0.0);
  acc.add(0.1);
  acc.add(0.2);
  // 1 - 0.9*0.8 = 0.28
  EXPECT_NEAR(acc.probability(), 0.28, 1e-12);
  EXPECT_EQ(acc.operationCount(), 2);
}

TEST(Reliability, AccumulatorAccurateForTinyProbabilities) {
  AppFailureAccumulator acc;
  acc.addMany(1e-12, 1000000);
  // ~1e-6; naive products of (1 - 1e-12) would round to 1.
  EXPECT_NEAR(acc.probability(), 1e-6, 1e-9);
}

TEST(Reliability, AccumulatorRejectsBadInput) {
  AppFailureAccumulator acc;
  EXPECT_THROW(acc.add(-0.1), Error);
  EXPECT_THROW(acc.add(1.5), Error);
  EXPECT_THROW(acc.addMany(0.1, -1), Error);
}

// P_DF = 0 ops are counted but never move P_app — the log-survival term
// is exactly zero, not a rounding-level perturbation.
TEST(Reliability, AccumulatorZeroPdfIsExactNoOp) {
  AppFailureAccumulator acc;
  acc.addMany(0.0, 1000000);
  EXPECT_DOUBLE_EQ(acc.probability(), 0.0);
  EXPECT_EQ(acc.operationCount(), 1000000);
  acc.add(0.25);
  acc.addMany(0.0, 5);
  EXPECT_NEAR(acc.probability(), 0.25, 1e-15);
}

// The boundary values the simulator can feed in: the P_DF model clamps
// to 0.5 (a fully ambiguous sense), and injection paths may saturate an
// op at certainty. Both must compose without NaN/Inf leakage.
TEST(Reliability, AccumulatorBoundaryPdfs) {
  AppFailureAccumulator half;
  half.add(0.5);
  EXPECT_NEAR(half.probability(), 0.5, 1e-15);
  half.addMany(0.5, 999);
  // 1 - 2^-1000 is exactly 1.0 in double precision.
  EXPECT_DOUBLE_EQ(half.probability(), 1.0);

  AppFailureAccumulator certain;
  certain.add(1.0);
  EXPECT_DOUBLE_EQ(certain.probability(), 1.0);
  certain.add(0.0);  // survival already zero; must stay pinned at 1
  EXPECT_DOUBLE_EQ(certain.probability(), 1.0);
}

// addMany(p, n) equals n repetitions of add(p) up to summation rounding,
// including for counts far beyond what a loop test would normally cover.
TEST(Reliability, AccumulatorAddManyMatchesRepeatedAdd) {
  AppFailureAccumulator bulk;
  bulk.addMany(1e-3, 50);
  AppFailureAccumulator loop;
  for (int i = 0; i < 50; ++i) loop.add(1e-3);
  EXPECT_NEAR(bulk.probability(), loop.probability(), 1e-12);
  EXPECT_EQ(bulk.operationCount(), loop.operationCount());

  AppFailureAccumulator huge;
  huge.addMany(1e-9, 2000000000L);
  // 1 - (1 - 1e-9)^2e9 = 1 - e^-2 up to O(p) corrections.
  EXPECT_NEAR(huge.probability(), 1.0 - std::exp(-2.0), 1e-9);
}

// The reason for log-space accumulation: at P_DF ~ 1e-18 the naive
// product rounds every factor (1 - p) to exactly 1.0 and reports a zero
// failure probability, while the log1p path keeps the true ~1e-12.
TEST(Reliability, AccumulatorLogSpaceBeatsNaiveProduct) {
  const double pdf = 1e-18;
  const long ops = 1000000;
  double naive = 1.0;
  for (int i = 0; i < 1000; ++i) naive *= (1.0 - pdf);  // representative
  EXPECT_DOUBLE_EQ(naive, 1.0);  // the naive product has already lost p

  AppFailureAccumulator acc;
  acc.addMany(pdf, ops);
  EXPECT_NEAR(acc.probability(), 1e-12, 1e-18);
  EXPECT_GT(acc.probability(), 0.0);
}

}  // namespace
}  // namespace sherlock::device
