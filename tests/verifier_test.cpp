// Unit tests for the static program verifier (src/verify): every rule is
// exercised with a hand-crafted illegal program and pinned to its
// instruction; valid programs — hand-written micro programs and the three
// paper workloads under both mappers — must verify cleanly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/faultmap.h"
#include "ir/serialize.h"
#include "mapping/compiler.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "support/trace.h"
#include "transforms/passes.h"
#include "verify/verifier.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock::verify {
namespace {

using isa::Instruction;
using isa::ShiftDirection;

isa::TargetSpec target64(int mra = 4) {
  return isa::TargetSpec::square(64, device::TechnologyParams::reRam(), mra);
}

/// The same known-good micro program the simulator tests use:
/// y = Xor(And(a, b), c), outputs at (0, 0, 3).
struct MicroProgram {
  ir::Graph g;
  mapping::Program prog;
  ir::NodeId a, b, c, x, y;
};

MicroProgram makeMicro() {
  MicroProgram m;
  m.a = m.g.addInput("a");
  m.b = m.g.addInput("b");
  m.c = m.g.addInput("c");
  m.x = m.g.addOp(ir::OpKind::And, {m.a, m.b});
  m.y = m.g.addOp(ir::OpKind::Xor, {m.x, m.c});
  m.g.markOutput(m.y);

  auto& p = m.prog;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {m.a};
  p.instructions.push_back(isa::makeWrite(0, {0}, 1));
  p.hostWriteValues[1] = {m.b};
  p.instructions.push_back(isa::makeWrite(0, {0}, 2));
  p.hostWriteValues[2] = {m.c};
  p.instructions.push_back(
      isa::makeCimRead(0, {0}, {0, 1}, {ir::OpKind::And}));
  p.instructions.push_back(
      isa::makeCimRead(0, {0}, {2}, {ir::OpKind::Xor}, {true}));
  p.instructions.push_back(isa::makeWrite(0, {0}, 3));
  p.outputCells[m.y] = {0, 0, 3};
  return m;
}

/// First violation of the micro program after `mutate` corrupted it.
Violation firstViolation(MicroProgram m) {
  VerifyResult r = verifyProgram(m.g, target64(), m.prog);
  EXPECT_FALSE(r.ok()) << "expected a violation";
  if (r.ok()) return {};
  return r.violations.front();
}

TEST(Verifier, AcceptsMicroProgram) {
  MicroProgram m = makeMicro();
  VerifyResult r = verifyProgram(m.g, target64(), m.prog);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.checkedInstructions, 6);
}

TEST(Verifier, RejectsOutOfBoundsColumn) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].columns = {64};
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::AddressBounds);
  EXPECT_EQ(v.instructionIndex, 3u);
}

TEST(Verifier, RejectsOutOfBoundsArray) {
  MicroProgram m = makeMicro();
  m.prog.instructions[0].arrayId = 99;
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::AddressBounds);
  EXPECT_EQ(v.instructionIndex, 0u);
}

TEST(Verifier, RejectsMraOverflow) {
  MicroProgram m = makeMicro();
  // Activate 3 rows on an MRA-2 target.
  m.prog.instructions[3].rows = {0, 1, 2};
  isa::TargetSpec t = target64(/*mra=*/2);
  VerifyResult r = verifyProgram(m.g, t, m.prog);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::MraExceeded);
  EXPECT_EQ(r.violations.front().instructionIndex, 3u);
}

TEST(Verifier, RejectsMismatchedRowSetEncoding) {
  // Column-op vectors that do not parallel the column list model a
  // malformed "per-column rows" encoding: two ops for one column.
  MicroProgram m = makeMicro();
  m.prog.instructions[3].colOps = {ir::OpKind::And, ir::OpKind::Or};
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::InstructionShape);
  EXPECT_EQ(v.instructionIndex, 3u);
}

TEST(Verifier, RejectsUnsortedRows) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].rows = {1, 0};
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::InstructionShape);
}

TEST(Verifier, RejectsReadBeforeWrite) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].rows = {0, 5};  // row 5 never written
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::ReadBeforeWrite);
  EXPECT_EQ(v.instructionIndex, 3u);
  EXPECT_EQ(v.arrayId, 0);
  EXPECT_EQ(v.row, 5);
  EXPECT_EQ(v.col, 0);
}

TEST(Verifier, RejectsChainedReadOfInvalidBuffer) {
  MicroProgram m = makeMicro();
  // Chained XOR first: its buffer operand was never produced.
  std::swap(m.prog.instructions[3], m.prog.instructions[4]);
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::BufferLiveness);
  EXPECT_EQ(v.instructionIndex, 3u);
}

TEST(Verifier, RejectsWriteFromInvalidBuffer) {
  MicroProgram m = makeMicro();
  // Drop the host payload of the first write: it becomes a buffered
  // write, but nothing was read into the buffer yet.
  m.prog.hostWriteValues.erase(0);
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::BufferLiveness);
  EXPECT_EQ(v.instructionIndex, 0u);
}

TEST(Verifier, RejectsShiftOfEmptyBuffer) {
  MicroProgram m = makeMicro();
  m.prog.instructions.insert(m.prog.instructions.begin(),
                             isa::makeShift(0, ShiftDirection::Left, 1));
  // Reindex the host write metadata and leave the rest untouched.
  std::map<size_t, std::vector<ir::NodeId>> shifted;
  for (auto& [idx, leaves] : m.prog.hostWriteValues)
    shifted[idx + 1] = std::move(leaves);
  m.prog.hostWriteValues = std::move(shifted);
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::BufferLiveness);
  EXPECT_EQ(v.instructionIndex, 0u);
}

/// A graph and a hand-written program for it.
struct GraphProgram {
  ir::Graph g;
  mapping::Program prog;
};

/// A two-column read with different ops per column.
GraphProgram makePerColumnProgram() {
  GraphProgram m;
  ir::Graph& g = m.g;
  ir::NodeId a = g.addInput("a"), b = g.addInput("b");
  ir::NodeId x = g.addOp(ir::OpKind::And, {a, b});
  ir::NodeId y = g.addOp(ir::OpKind::Or, {a, b});
  g.markOutput(x);
  g.markOutput(y);
  mapping::Program& p = m.prog;
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 0));
  p.hostWriteValues[0] = {a, a};
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 1));
  p.hostWriteValues[1] = {b, b};
  p.instructions.push_back(isa::makeCimRead(
      0, {0, 1}, {0, 1}, {ir::OpKind::And, ir::OpKind::Or}));
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 2));
  p.outputCells[x] = {0, 0, 2};
  p.outputCells[y] = {0, 1, 2};
  return m;
}

isa::TargetSpec uniformOpsTarget() {
  isa::TargetSpec t = target64();
  t.perColumnOps = false;
  return t;
}

TEST(Verifier, RejectsPerColumnOpsWhenUnsupported) {
  // The per-column program on a target without per-column multiplexers.
  GraphProgram m = makePerColumnProgram();
  VerifyResult r = verifyProgram(m.g, uniformOpsTarget(), m.prog);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::PerColumnOps);

  // The same program is legal on the default feature set.
  EXPECT_TRUE(verifyProgram(m.g, target64(), m.prog).ok());
}

TEST(Verifier, RejectsChainingWhenUnsupported) {
  MicroProgram m = makeMicro();
  isa::TargetSpec t = target64();
  t.bufferChaining = false;
  VerifyResult r = verifyProgram(m.g, t, m.prog);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::BufferChaining);
  EXPECT_EQ(r.violations.front().instructionIndex, 4u);
}

TEST(Verifier, RejectsUnaryArityViolation) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].colOps = {ir::OpKind::Not};  // 2 rows for a NOT
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::OperandArity);
}

TEST(Verifier, RejectsHostWriteArityMismatch) {
  MicroProgram m = makeMicro();
  m.prog.hostWriteValues[0] = {m.a, m.b};  // 2 values for 1 column
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::HostWriteMetadata);
}

TEST(Verifier, RejectsHostWriteOfOpNode) {
  MicroProgram m = makeMicro();
  m.prog.hostWriteValues[0] = {m.x};
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::HostWriteMetadata);
}

TEST(Verifier, RejectsMissingOutputCell) {
  MicroProgram m = makeMicro();
  m.prog.outputCells.clear();
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::OutputPlacement);
}

TEST(Verifier, RejectsUnwrittenOutputCell) {
  MicroProgram m = makeMicro();
  m.prog.outputCells[m.y] = {0, 9, 9};
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::OutputPlacement);
  EXPECT_EQ(v.row, 9);
  EXPECT_EQ(v.col, 9);
}

TEST(Verifier, EquivalenceCatchesWrongOperand) {
  // Load `a` where `b` belongs: every instruction stays individually
  // legal, only the computed value is wrong — the case execution-free
  // structural checks cannot see and value numbering must.
  MicroProgram m = makeMicro();
  m.prog.hostWriteValues[1] = {m.a};
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::ValueEquivalence);
}

TEST(Verifier, EquivalenceCatchesWrongOp) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].colOps[0] = ir::OpKind::Or;
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::ValueEquivalence);
}

TEST(Verifier, EquivalenceCatchesClobberedLiveCell) {
  // Spill the AND result over `c`, which is still live: the chained XOR
  // then combines x with x instead of with c.
  MicroProgram m = makeMicro();
  m.prog.instructions[4] = isa::makeWrite(0, {0}, 2);  // x clobbers c
  m.prog.instructions.push_back(
      isa::makeCimRead(0, {0}, {2}, {ir::OpKind::Xor}, {true}));
  m.prog.instructions.push_back(isa::makeWrite(0, {0}, 3));
  Violation v = firstViolation(std::move(m));
  EXPECT_EQ(v.rule, Rule::ValueEquivalence);
}

/// A value routed through the row buffer with the wrong shift distance:
/// it lands in a different column, and the output write then consumes a
/// buffer bit the program never produced.
GraphProgram makeMisalignedShift() {
  GraphProgram m;
  ir::NodeId a = m.g.addInput("a");
  m.g.markOutput(a);
  mapping::Program& p = m.prog;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makePlainRead(0, {0}, 0));
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 2));
  p.instructions.push_back(isa::makeWrite(0, {3}, 1));  // expects dist 3
  p.outputCells[a] = {0, 3, 1};
  return m;
}

TEST(Verifier, CatchesMisalignedShift) {
  GraphProgram m = makeMisalignedShift();
  VerifyResult r = verifyProgram(m.g, target64(), m.prog);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::BufferLiveness);
}

/// Inputs a, b, c host-written side by side into row 0 at columns
/// first .. first + 2, read into the row buffer and moved by `shifts`;
/// b is then written from column `writeCol` into row 1, its output cell.
/// A shift one column off puts a or c under `writeCol` instead: a live
/// bit, so only value equivalence can tell.
VerifyResult routeThroughShifts(int first,
                                const std::vector<Instruction>& shifts,
                                int writeCol) {
  ir::Graph g;
  ir::NodeId a = g.addInput("a"), b = g.addInput("b"), c = g.addInput("c");
  g.markOutput(b);
  mapping::Program p;
  std::vector<int> cols{first, first + 1, first + 2};
  p.instructions.push_back(isa::makeWrite(0, cols, 0));
  p.hostWriteValues[0] = {a, b, c};
  p.instructions.push_back(isa::makePlainRead(0, cols, 0));
  p.instructions.insert(p.instructions.end(), shifts.begin(), shifts.end());
  p.instructions.push_back(isa::makeWrite(0, {writeCol}, 1));
  p.outputCells[b] = {0, writeCol, 1};
  return verifyProgram(g, target64(), p);
}

Instruction shiftLeft(int d) {
  return isa::makeShift(0, ShiftDirection::Left, d);
}
Instruction shiftRight(int d) {
  return isa::makeShift(0, ShiftDirection::Right, d);
}

void expectAlignedOnly(const VerifyResult& aligned,
                       const VerifyResult& offByOne) {
  EXPECT_TRUE(aligned.ok()) << aligned.summary();
  ASSERT_FALSE(offByOne.ok());
  EXPECT_EQ(offByOne.violations.front().rule, Rule::ValueEquivalence)
      << offByOne.summary();
}

TEST(Verifier, RightShiftMovesColumnsDown) {
  // b sits in column 5; a right shift by 2 brings it to column 3.
  expectAlignedOnly(routeThroughShifts(4, {shiftRight(2)}, 3),
                    routeThroughShifts(4, {shiftRight(1)}, 3));
}

TEST(Verifier, ShiftByColsMinusOneWraps) {
  // Left by 63 on 64 columns is right by 1: b (column 1) lands in 0 and
  // a wraps from column 0 to 63.
  expectAlignedOnly(routeThroughShifts(0, {shiftLeft(63)}, 0),
                    routeThroughShifts(0, {shiftLeft(62)}, 0));
}

TEST(Verifier, OpposedShiftsComposeToIdentity) {
  expectAlignedOnly(
      routeThroughShifts(4, {shiftLeft(7), shiftRight(7)}, 5),
      routeThroughShifts(4, {shiftLeft(7), shiftRight(6)}, 5));
}

/// a, b, c in row 0 at columns 4..6 and d in row 1 at column 7; the row
/// buffer is shifted left by `distance`, a chained CIM read ANDs d with
/// the buffer bit of column 7, and the result is written into row 2 as
/// the output And(b, d). Only distance 2 puts b under column 7.
VerifyResult shiftThenChain(int distance) {
  ir::Graph g;
  ir::NodeId a = g.addInput("a"), b = g.addInput("b"), c = g.addInput("c");
  ir::NodeId d = g.addInput("d");
  ir::NodeId y = g.addOp(ir::OpKind::And, {b, d});
  g.markOutput(y);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {4, 5, 6}, 0));
  p.hostWriteValues[0] = {a, b, c};
  p.instructions.push_back(isa::makeWrite(0, {7}, 1));
  p.hostWriteValues[1] = {d};
  p.instructions.push_back(isa::makePlainRead(0, {4, 5, 6}, 0));
  p.instructions.push_back(shiftLeft(distance));
  p.instructions.push_back(
      isa::makeCimRead(0, {7}, {1}, {ir::OpKind::And}, {true}));
  p.instructions.push_back(isa::makeWrite(0, {7}, 2));
  p.outputCells[y] = {0, 7, 2};
  return verifyProgram(g, target64(), p);
}

TEST(Verifier, ShiftThenChainedReadThenWrite) {
  expectAlignedOnly(shiftThenChain(2), shiftThenChain(1));
}

/// Array 1 reads a live bit into its row buffer, then array 0, whose
/// buffer is empty, shifts: the liveness check is per array.
VerifyResult shiftEmptyBesideLiveBuffer() {
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(1, {0}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makePlainRead(1, {0}, 0));
  p.instructions.push_back(shiftLeft(1));
  p.outputCells[a] = {1, 0, 0};
  isa::TargetSpec t = target64();
  t.numArrays = 2;
  return verifyProgram(g, t, p);
}

TEST(Verifier, RejectsShiftOfEmptyBufferBesideLiveArray) {
  VerifyResult r = shiftEmptyBesideLiveBuffer();
  ASSERT_FALSE(r.ok());
  const Violation& v = r.violations.front();
  EXPECT_EQ(v.rule, Rule::BufferLiveness);
  EXPECT_EQ(v.instructionIndex, 2u);
  EXPECT_EQ(v.arrayId, 0);
}

TEST(Verifier, CheckProgramThrowsStructuredError) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].rows = {0, 5};
  try {
    checkProgram(m.g, target64(), m.prog);
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& e) {
    EXPECT_EQ(e.instructionIndex(), 3);
    EXPECT_STREQ(e.rule().c_str(), "read-before-write");
  }
}

TEST(Verifier, FaultAvoidanceRejectsStuckCellRead) {
  // The micro program is clean on a perfect array; pin one operand cell
  // (array 0, row 1, col 0 — operand b) to stuck-at-HRS and the
  // FaultAvoidance rule must flag both the write that programs it
  // (instruction 1) and the CIM read that senses it (instruction 3).
  MicroProgram m = makeMicro();
  isa::TargetSpec t = target64();
  device::FaultMap map(t.numArrays, t.rows(), t.cols());
  map.setFault(0, 1, 0, device::CellFault::StuckAtHrs);
  VerifyOptions vopts;
  vopts.faultMap = &map;
  VerifyResult r = verifyProgram(m.g, t, m.prog, vopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::FaultAvoidance);
  EXPECT_EQ(r.violations.front().instructionIndex, 1u);
  bool readFlagged = false;
  for (const Violation& v : r.violations)
    readFlagged |=
        v.rule == Rule::FaultAvoidance && v.instructionIndex == 3;
  EXPECT_TRUE(readFlagged) << r.summary();
}

TEST(Verifier, FaultAvoidanceRejectsStuckCellWrite) {
  MicroProgram m = makeMicro();
  isa::TargetSpec t = target64();
  device::FaultMap map(t.numArrays, t.rows(), t.cols());
  map.setFault(0, 3, 0, device::CellFault::StuckAtLrs);  // the output cell
  VerifyOptions vopts;
  vopts.faultMap = &map;
  VerifyResult r = verifyProgram(m.g, t, m.prog, vopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::FaultAvoidance);
  EXPECT_EQ(r.violations.front().instructionIndex, 5u);
}

TEST(Verifier, FaultAvoidanceAcceptsUntouchedFaults) {
  // Stuck cells the program never senses or programs are fine.
  MicroProgram m = makeMicro();
  isa::TargetSpec t = target64();
  device::FaultMap map(t.numArrays, t.rows(), t.cols());
  map.setFault(0, 60, 60, device::CellFault::StuckAtHrs);
  map.setFault(0, 0, 1, device::CellFault::StuckAtLrs);  // col 1 unused
  VerifyOptions vopts;
  vopts.faultMap = &map;
  VerifyResult r = verifyProgram(m.g, t, m.prog, vopts);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, FaultAvoidanceRejectsMismatchedMapDimensions) {
  MicroProgram m = makeMicro();
  device::FaultMap map(1, 32, 32);
  VerifyOptions vopts;
  vopts.faultMap = &map;
  EXPECT_THROW(verifyProgram(m.g, target64(), m.prog, vopts), Error);
}

/// Acceptance: both mappers' output on their own compile-time fault maps
/// passes the FaultAvoidance rule (and everything else) for the paper
/// workloads — placement provably routed around every stuck cell.
TEST(Verifier, FaultAvoidanceAcceptsFaultAwarePlacements) {
  ir::Graph g =
      transforms::canonicalize(workloads::buildBitweaving({8}));
  isa::TargetSpec target = target64();
  device::FaultMapOptions fo;
  fo.seed = 21;
  fo.stuckDensity = 0.05;
  fo.weakDensity = 0.02;
  device::FaultMap map = device::FaultMap::generate(
      target.numArrays, target.rows(), target.cols(), fo);
  for (mapping::Strategy strategy :
       {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
    mapping::CompileOptions copts;
    copts.strategy = strategy;
    copts.faults.map = &map;
    copts.faults.spareRows = 4;
    auto compiled = mapping::compile(g, target, copts);
    VerifyOptions vopts;
    vopts.faultMap = &map;
    VerifyResult r = verifyProgram(g, target, compiled.program, vopts);
    EXPECT_TRUE(r.ok())
        << (strategy == mapping::Strategy::Naive ? "naive: " : "opt: ")
        << r.summary();
  }
}

/// Two-array micro program for the transfer rules: `a` is host-written
/// into array 0 and XFERred to array 1, where it is the output.
struct TransferMicro {
  ir::Graph g;
  mapping::Program prog;
  isa::TargetSpec target;
  ir::NodeId a;
};

TransferMicro makeTransferMicro() {
  TransferMicro m;
  m.target = target64();
  m.target.numArrays = 2;
  m.a = m.g.addInput("a");
  m.g.markOutput(m.a);
  auto& p = m.prog;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {m.a};
  p.instructions.push_back(isa::makeXfer(0, 0, 0, 1, 0, 0));
  p.outputCells[m.a] = {1, 0, 0};
  return m;
}

TEST(Verifier, AcceptsCrossArrayTransfer) {
  TransferMicro m = makeTransferMicro();
  VerifyResult r = verifyProgram(m.g, m.target, m.prog);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, TransferLegalityRejectsSameArrayTransfer) {
  TransferMicro m = makeTransferMicro();
  m.prog.instructions[1] = isa::makeXfer(0, 0, 0, 0, 1, 5);
  VerifyResult r = verifyProgram(m.g, m.target, m.prog);
  ASSERT_FALSE(r.ok());
  const Violation& v = r.violations.front();
  EXPECT_EQ(v.rule, Rule::TransferLegality);
  EXPECT_EQ(v.instructionIndex, 1u);
  EXPECT_EQ(v.row, 5);
  EXPECT_EQ(v.col, 1);
}

TEST(Verifier, TransferLegalityRejectsSpareRegionDestination) {
  TransferMicro m = makeTransferMicro();
  m.prog.instructions[1] = isa::makeXfer(0, 0, 0, 1, 0, 62);
  m.prog.outputCells[m.a] = {1, 0, 62};
  VerifyOptions vopts;
  vopts.spareRows = 4;  // rows [60, 64) are repair-reserved
  VerifyResult r = verifyProgram(m.g, m.target, m.prog, vopts);
  ASSERT_FALSE(r.ok());
  const Violation& v = r.violations.front();
  EXPECT_EQ(v.rule, Rule::TransferLegality);
  EXPECT_EQ(v.instructionIndex, 1u);
  EXPECT_EQ(v.arrayId, 1);
  EXPECT_EQ(v.row, 62);
  // The same destination row is legal without reserved spare rows.
  VerifyResult clean = verifyProgram(m.g, m.target, m.prog);
  EXPECT_TRUE(clean.ok()) << clean.summary();
}

TEST(Verifier, ReadBeforeWriteOnUnwrittenTransferSource) {
  TransferMicro m = makeTransferMicro();
  m.prog.instructions[1] = isa::makeXfer(0, 0, 7, 1, 0, 0);  // row 7 empty
  VerifyResult r = verifyProgram(m.g, m.target, m.prog);
  ASSERT_FALSE(r.ok());
  const Violation& v = r.violations.front();
  EXPECT_EQ(v.rule, Rule::ReadBeforeWrite);
  EXPECT_EQ(v.instructionIndex, 1u);
  EXPECT_EQ(v.arrayId, 0);
  EXPECT_EQ(v.row, 7);
  EXPECT_EQ(v.col, 0);
}

TEST(Verifier, FaultAvoidanceRejectsStuckTransferDestination) {
  TransferMicro m = makeTransferMicro();
  device::FaultMap map(m.target.numArrays, m.target.rows(),
                       m.target.cols());
  map.setFault(1, 0, 0, device::CellFault::StuckAtLrs);
  VerifyOptions vopts;
  vopts.faultMap = &map;
  VerifyResult r = verifyProgram(m.g, m.target, m.prog, vopts);
  ASSERT_FALSE(r.ok());
  const Violation& v = r.violations.front();
  EXPECT_EQ(v.rule, Rule::FaultAvoidance);
  EXPECT_EQ(v.instructionIndex, 1u);
  EXPECT_EQ(v.arrayId, 1);
  EXPECT_EQ(v.row, 0);
  EXPECT_EQ(v.col, 0);
}

TEST(Verifier, FaultAvoidanceRejectsStuckTransferSource) {
  TransferMicro m = makeTransferMicro();
  device::FaultMap map(m.target.numArrays, m.target.rows(),
                       m.target.cols());
  map.setFault(0, 0, 0, device::CellFault::StuckAtHrs);
  VerifyOptions vopts;
  vopts.faultMap = &map;
  VerifyResult r = verifyProgram(m.g, m.target, m.prog, vopts);
  ASSERT_FALSE(r.ok());
  // The host write programming the stuck cell fires first; the transfer
  // sensing it must be flagged too, anchored to the source coordinates.
  bool senseFlagged = false;
  for (const Violation& v : r.violations)
    senseFlagged |= v.rule == Rule::FaultAvoidance &&
                    v.instructionIndex == 1 && v.arrayId == 0 &&
                    v.row == 0 && v.col == 0;
  EXPECT_TRUE(senseFlagged) << r.summary();
}

/// Every field of a result, one violation per line.
std::string render(const VerifyResult& r) {
  std::string out = strCat("checked ", r.checkedInstructions, "\n");
  for (const Violation& v : r.violations)
    out += strCat(ruleName(v.rule), " inst ",
                  v.instructionIndex == Violation::kNoInstruction
                      ? std::string("-")
                      : std::to_string(v.instructionIndex),
                  " array ", v.arrayId, " row ", v.row, " col ", v.col,
                  ": ", v.message, "\n");
  return out;
}

using Mutations =
    std::vector<std::pair<std::string, std::function<VerifyResult()>>>;

/// Every mutation in this file, by name, with the target and options its
/// test checks it under.
Mutations allMutations() {
  Mutations out;
  auto add = [&out](std::string name, std::function<VerifyResult()> run) {
    out.emplace_back(std::move(name), std::move(run));
  };
  using M = MicroProgram;
  auto micro = [&add](std::string name, std::function<void(M&)> mutate,
                      isa::TargetSpec target = target64()) {
    add(std::move(name), [mutate, target] {
      MicroProgram m = makeMicro();
      mutate(m);
      return verifyProgram(m.g, target, m.prog);
    });
  };
  using T = TransferMicro;
  auto transfer = [&add](std::string name, std::function<void(T&)> mutate,
                         VerifyOptions vopts = {}) {
    add(std::move(name), [mutate, vopts] {
      TransferMicro m = makeTransferMicro();
      mutate(m);
      return verifyProgram(m.g, m.target, m.prog, vopts);
    });
  };
  auto unchanged = [](auto&) {};

  micro("out-of-bounds-column",
        [](M& m) { m.prog.instructions[3].columns = {64}; });
  micro("out-of-bounds-array",
        [](M& m) { m.prog.instructions[0].arrayId = 99; });
  micro("mra-overflow",
        [](M& m) { m.prog.instructions[3].rows = {0, 1, 2}; },
        target64(/*mra=*/2));
  micro("mismatched-row-set-encoding", [](M& m) {
    m.prog.instructions[3].colOps = {ir::OpKind::And, ir::OpKind::Or};
  });
  micro("unsorted-rows", [](M& m) { m.prog.instructions[3].rows = {1, 0}; });
  micro("read-before-write",
        [](M& m) { m.prog.instructions[3].rows = {0, 5}; });
  micro("chained-read-of-invalid-buffer", [](M& m) {
    std::swap(m.prog.instructions[3], m.prog.instructions[4]);
  });
  micro("write-from-invalid-buffer",
        [](M& m) { m.prog.hostWriteValues.erase(0); });
  micro("shift-of-empty-buffer", [](M& m) {
    m.prog.instructions.insert(m.prog.instructions.begin(), shiftLeft(1));
    std::map<size_t, std::vector<ir::NodeId>> shifted;
    for (auto& [idx, leaves] : m.prog.hostWriteValues)
      shifted[idx + 1] = std::move(leaves);
    m.prog.hostWriteValues = std::move(shifted);
  });
  add("per-column-ops-unsupported", [] {
    GraphProgram m = makePerColumnProgram();
    return verifyProgram(m.g, uniformOpsTarget(), m.prog);
  });
  isa::TargetSpec noChaining = target64();
  noChaining.bufferChaining = false;
  micro("chaining-unsupported", unchanged, noChaining);
  micro("unary-arity",
        [](M& m) { m.prog.instructions[3].colOps = {ir::OpKind::Not}; });
  micro("host-write-arity",
        [](M& m) { m.prog.hostWriteValues[0] = {m.a, m.b}; });
  micro("host-write-of-op-node",
        [](M& m) { m.prog.hostWriteValues[0] = {m.x}; });
  micro("missing-output-cell", [](M& m) { m.prog.outputCells.clear(); });
  micro("unwritten-output-cell",
        [](M& m) { m.prog.outputCells[m.y] = {0, 9, 9}; });
  micro("equivalence-wrong-operand",
        [](M& m) { m.prog.hostWriteValues[1] = {m.a}; });
  micro("equivalence-wrong-op",
        [](M& m) { m.prog.instructions[3].colOps[0] = ir::OpKind::Or; });
  micro("equivalence-clobbered-live-cell", [](M& m) {
    m.prog.instructions[4] = isa::makeWrite(0, {0}, 2);
    m.prog.instructions.push_back(
        isa::makeCimRead(0, {0}, {2}, {ir::OpKind::Xor}, {true}));
    m.prog.instructions.push_back(isa::makeWrite(0, {0}, 3));
  });
  add("misaligned-shift", [] {
    GraphProgram m = makeMisalignedShift();
    return verifyProgram(m.g, target64(), m.prog);
  });
  add("right-shift-aligned",
      [] { return routeThroughShifts(4, {shiftRight(2)}, 3); });
  add("right-shift-off-by-one",
      [] { return routeThroughShifts(4, {shiftRight(1)}, 3); });
  add("wrapping-shift-aligned",
      [] { return routeThroughShifts(0, {shiftLeft(63)}, 0); });
  add("wrapping-shift-off-by-one",
      [] { return routeThroughShifts(0, {shiftLeft(62)}, 0); });
  add("identity-shifts-aligned", [] {
    return routeThroughShifts(4, {shiftLeft(7), shiftRight(7)}, 5);
  });
  add("identity-shifts-off-by-one", [] {
    return routeThroughShifts(4, {shiftLeft(7), shiftRight(6)}, 5);
  });
  add("shift-chain-aligned", [] { return shiftThenChain(2); });
  add("shift-chain-off-by-one", [] { return shiftThenChain(1); });
  add("shift-empty-beside-live-buffer", shiftEmptyBesideLiveBuffer);

  // One stuck cell under the micro program or the transfer program.
  auto stuckCell = [&add](std::string name, bool onTransfer, int arrayId,
                          int row, int col, device::CellFault fault) {
    add(std::move(name), [=] {
      MicroProgram micro = makeMicro();
      TransferMicro xfer = makeTransferMicro();
      const ir::Graph& g = onTransfer ? xfer.g : micro.g;
      const mapping::Program& p = onTransfer ? xfer.prog : micro.prog;
      isa::TargetSpec t = onTransfer ? xfer.target : target64();
      device::FaultMap map(t.numArrays, t.rows(), t.cols());
      map.setFault(arrayId, row, col, fault);
      VerifyOptions vopts;
      vopts.faultMap = &map;
      return verifyProgram(g, t, p, vopts);
    });
  };
  stuckCell("fault-stuck-operand", false, 0, 1, 0,
            device::CellFault::StuckAtHrs);
  stuckCell("fault-stuck-output", false, 0, 3, 0,
            device::CellFault::StuckAtLrs);
  stuckCell("fault-untouched", false, 0, 60, 60,
            device::CellFault::StuckAtHrs);

  transfer("transfer-same-array", [](T& m) {
    m.prog.instructions[1] = isa::makeXfer(0, 0, 0, 0, 1, 5);
  });
  VerifyOptions spares;
  spares.spareRows = 4;
  transfer(
      "transfer-spare-region",
      [](T& m) {
        m.prog.instructions[1] = isa::makeXfer(0, 0, 0, 1, 0, 62);
        m.prog.outputCells[m.a] = {1, 0, 62};
      },
      spares);
  transfer("transfer-unwritten-source", [](T& m) {
    m.prog.instructions[1] = isa::makeXfer(0, 0, 7, 1, 0, 0);
  });
  stuckCell("fault-stuck-transfer-destination", true, 1, 0, 0,
            device::CellFault::StuckAtLrs);
  stuckCell("fault-stuck-transfer-source", true, 0, 0, 0,
            device::CellFault::StuckAtHrs);
  return out;
}

// Full results of every mutation, recorded from the verifier before its
// value table and array state became flat.
// clang-format off
const std::pair<const char*, const char*> kPinnedResults[] = {
  {"out-of-bounds-column",
   R"(checked 6
address-bounds inst 3 array 0 row -1 col -1: column 64 outside [0, 64)
buffer-liveness inst 4 array 0 row -1 col 0: chained read of invalid buffer column 0 (no prior read produced it)
)"},
  {"out-of-bounds-array",
   R"(checked 6
address-bounds inst 0 array 99 row -1 col -1: array id 99 outside [0, 16)
read-before-write inst 3 array 0 row 0 col 0: read of unwritten cell (array 0, row 0, col 0)
)"},
  {"mra-overflow",
   R"(checked 6
mra-exceeded inst 3 array 0 row -1 col -1: CIM read activates 3 rows, exceeding the MRA limit 2 of ReRAM
buffer-liveness inst 4 array 0 row -1 col 0: chained read of invalid buffer column 0 (no prior read produced it)
)"},
  {"mismatched-row-set-encoding",
   R"(checked 6
instruction-shape inst 3 array 0 row -1 col -1: 2 ops for 1 columns
buffer-liveness inst 4 array 0 row -1 col 0: chained read of invalid buffer column 0 (no prior read produced it)
)"},
  {"unsorted-rows",
   R"(checked 6
instruction-shape inst 3 array 0 row -1 col -1: rows must be ascending and unique
buffer-liveness inst 4 array 0 row -1 col 0: chained read of invalid buffer column 0 (no prior read produced it)
)"},
  {"read-before-write",
   R"(checked 6
read-before-write inst 3 array 0 row 5 col 0: read of unwritten cell (array 0, row 5, col 0)
)"},
  {"chained-read-of-invalid-buffer",
   R"(checked 6
buffer-liveness inst 3 array 0 row -1 col 0: chained read of invalid buffer column 0 (no prior read produced it)
)"},
  {"write-from-invalid-buffer",
   R"(checked 6
buffer-liveness inst 0 array 0 row 0 col 0: write from invalid buffer column 0 (no prior read produced it)
)"},
  {"shift-of-empty-buffer",
   R"(checked 7
buffer-liveness inst 0 array 0 row -1 col -1: shift of an empty row buffer moves no live bit
)"},
  {"per-column-ops-unsupported",
   R"(checked 4
per-column-ops inst 2 array 0 row -1 col -1: target lacks per-column op multiplexers but the instruction mixes operations
buffer-liveness inst 3 array 0 row 2 col 0: write from invalid buffer column 0 (no prior read produced it)
buffer-liveness inst 3 array 0 row 2 col 1: write from invalid buffer column 1 (no prior read produced it)
)"},
  {"chaining-unsupported",
   R"(checked 6
buffer-chaining inst 4 array 0 row -1 col -1: column 0 chains the row buffer but the target does not support operand chaining
)"},
  {"unary-arity",
   R"(checked 6
operand-arity inst 3 array 0 row -1 col -1: NOT on column 0 senses 2 bits; unary ops take exactly one
buffer-liveness inst 4 array 0 row -1 col 0: chained read of invalid buffer column 0 (no prior read produced it)
)"},
  {"host-write-arity",
   R"(checked 6
host-write-metadata inst 0 array 0 row -1 col -1: host write carries 2 values for 1 columns
buffer-liveness inst 0 array 0 row 0 col 0: write from invalid buffer column 0 (no prior read produced it)
)"},
  {"host-write-of-op-node",
   R"(checked 6
host-write-metadata inst 0 array 0 row -1 col -1: host write of non-leaf node 3
)"},
  {"missing-output-cell",
   R"(checked 6
output-placement inst - array -1 row -1 col -1: output 4 has no recorded cell
)"},
  {"unwritten-output-cell",
   R"(checked 6
output-placement inst - array 0 row 9 col 9: output 4 cell (array 0, row 9, col 9) was never written
)"},
  {"equivalence-wrong-operand",
   R"(checked 6
value-equivalence inst - array 0 row 3 col 0: output 4 cell (array 0, row 3, col 0) holds a different symbolic value than the DAG computes
)"},
  {"equivalence-wrong-op",
   R"(checked 6
value-equivalence inst - array 0 row 3 col 0: output 4 cell (array 0, row 3, col 0) holds a different symbolic value than the DAG computes
)"},
  {"equivalence-clobbered-live-cell",
   R"(checked 8
value-equivalence inst - array 0 row 3 col 0: output 4 cell (array 0, row 3, col 0) holds a different symbolic value than the DAG computes
)"},
  {"misaligned-shift",
   R"(checked 4
buffer-liveness inst 3 array 0 row 1 col 3: write from invalid buffer column 3 (no prior read produced it)
)"},
  {"right-shift-aligned",
   R"(checked 4
)"},
  {"right-shift-off-by-one",
   R"(checked 4
value-equivalence inst - array 0 row 1 col 3: output 1 cell (array 0, row 1, col 3) holds a different symbolic value than the DAG computes
)"},
  {"wrapping-shift-aligned",
   R"(checked 4
)"},
  {"wrapping-shift-off-by-one",
   R"(checked 4
value-equivalence inst - array 0 row 1 col 0: output 1 cell (array 0, row 1, col 0) holds a different symbolic value than the DAG computes
)"},
  {"identity-shifts-aligned",
   R"(checked 5
)"},
  {"identity-shifts-off-by-one",
   R"(checked 5
value-equivalence inst - array 0 row 1 col 5: output 1 cell (array 0, row 1, col 5) holds a different symbolic value than the DAG computes
)"},
  {"shift-chain-aligned",
   R"(checked 6
)"},
  {"shift-chain-off-by-one",
   R"(checked 6
value-equivalence inst - array 0 row 2 col 7: output 4 cell (array 0, row 2, col 7) holds a different symbolic value than the DAG computes
)"},
  {"shift-empty-beside-live-buffer",
   R"(checked 3
buffer-liveness inst 2 array 0 row -1 col -1: shift of an empty row buffer moves no live bit
)"},
  {"fault-stuck-operand",
   R"(checked 6
fault-avoidance inst 1 array 0 row 1 col 0: write targets stuck-at-HRS cell (array 0, row 1, col 0)
fault-avoidance inst 3 array 0 row 1 col 0: read senses stuck-at-HRS cell (array 0, row 1, col 0)
)"},
  {"fault-stuck-output",
   R"(checked 6
fault-avoidance inst 5 array 0 row 3 col 0: write targets stuck-at-LRS cell (array 0, row 3, col 0)
)"},
  {"fault-untouched",
   R"(checked 6
)"},
  {"transfer-same-array",
   R"(checked 2
transfer-legality inst 1 array 0 row 5 col 1: transfer within array 0; same-array movement is shift/write territory
output-placement inst - array 1 row 0 col 0: output 0 cell (array 1, row 0, col 0) was never written
)"},
  {"transfer-spare-region",
   R"(checked 2
transfer-legality inst 1 array 1 row 62 col 0: transfer into spare-reserved row 62 of array 1 (repair region is rows [60, 64))
)"},
  {"transfer-unwritten-source",
   R"(checked 2
read-before-write inst 1 array 0 row 7 col 0: transfer of unwritten cell (array 0, row 7, col 0)
)"},
  {"fault-stuck-transfer-destination",
   R"(checked 2
fault-avoidance inst 1 array 1 row 0 col 0: transfer targets stuck-at-LRS destination cell (array 1, row 0, col 0)
)"},
  {"fault-stuck-transfer-source",
   R"(checked 2
fault-avoidance inst 0 array 0 row 0 col 0: write targets stuck-at-HRS cell (array 0, row 0, col 0)
fault-avoidance inst 1 array 0 row 0 col 0: transfer senses stuck-at-HRS source cell (array 0, row 0, col 0)
)"},
};
// clang-format on

TEST(Verifier, EveryMutationKeepsItsFullResult) {
  auto mutations = allMutations();
  std::string table;
  for (const auto& [name, run] : mutations) {
    std::string text = render(run());
    table += strCat("  {\"", name, "\",\n   R\"(", text, ")\"},\n");
  }
  ASSERT_EQ(mutations.size(), std::size(kPinnedResults))
      << "current table:\n" << table;
  for (size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_EQ(mutations[i].first, kPinnedResults[i].first);
    EXPECT_EQ(render(mutations[i].second()), kPinnedResults[i].second)
        << mutations[i].first;
  }
}

/// Recorded "mapping"/"verify" spans: mapping::compile opens one per
/// program it proves.
size_t verifySpans() {
  size_t n = 0;
  for (const trace::TraceEvent& e : trace::Tracer::instance().snapshot())
    n += e.phase == trace::TraceEvent::Phase::Begin &&
         std::string_view(e.category) == "mapping" && e.name == "verify";
  return n;
}

TEST(Verifier, EveryCompileVerifiesWhateverTheEnvironment) {
  // The variable that once switched verification off in release builds
  // must change nothing: compile and a service miss both prove. Nothing
  // reads it any more, so it is left set.
  ::setenv("SHERLOCK_VERIFY", "0", 1);
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();

  workloads::RandomDagSpec spec;
  spec.seed = 11;
  ir::Graph g =
      transforms::canonicalize(workloads::buildRandomDag(spec));
  EXPECT_NO_THROW(mapping::compile(g, target64()));
  EXPECT_EQ(verifySpans(), 1u);

  serve::CompileService service;
  serve::RequestOptions request;
  request.targetDim = 64;
  serve::CompileResponse response =
      service.handle(ir::graphToText(g), request);
  EXPECT_TRUE(response.ok) << response.payload;
  EXPECT_FALSE(response.cacheHit);
  EXPECT_EQ(verifySpans(), 2u);

  tracer.disable();
  tracer.clear();
}

/// A 16 x 16 ReRAM target with `arrays` arrays.
isa::TargetSpec target16(int arrays) {
  isa::TargetSpec t =
      isa::TargetSpec::square(16, device::TechnologyParams::reRam(), 2);
  t.numArrays = arrays;
  return t;
}

/// The first broken rule's name for `inst` on target16(arrays), or ""
/// when the instruction is legal.
std::string ruleOf(const Instruction& inst, int arrays = 1) {
  std::optional<Violation> v = checkInstructionRules(inst, target16(arrays));
  return v ? ruleName(v->rule) : "";
}

TEST(InstructionRules, AddressesStayInBounds) {
  EXPECT_EQ(ruleOf(isa::makeWrite(1, {0, 15}, 15), 2), "");
  EXPECT_EQ(ruleOf(isa::makeWrite(2, {0}, 0), 2), "address-bounds");
  EXPECT_EQ(ruleOf(isa::makeWrite(0, {16}, 0), 2), "address-bounds");
  EXPECT_EQ(ruleOf(isa::makeWrite(0, {0}, 16), 2), "address-bounds");
  EXPECT_EQ(
      ruleOf(isa::makeCimRead(0, {3}, {2, 16}, {ir::OpKind::And}), 2),
      "address-bounds");
}

TEST(InstructionRules, OutOfBoundsMessagesNameTheRange) {
  auto message = [](const Instruction& inst) {
    std::optional<Violation> v = checkInstructionRules(inst, target16(2));
    return v ? v->message : "no violation";
  };
  EXPECT_EQ(message(isa::makeCimRead(0, {3}, {2, 16}, {ir::OpKind::And})),
            "row 16 outside [0, 16)");
  EXPECT_EQ(message(isa::makeWrite(0, {17}, 0)), "column 17 outside [0, 16)");
  EXPECT_EQ(message(isa::makeWrite(2, {0}, 0)), "array id 2 outside [0, 2)");
}

TEST(InstructionRules, XferEndpointsStayInBounds) {
  EXPECT_EQ(ruleOf(isa::makeXfer(0, 0, 0, 3, 15, 15), 4), "");
  // Each endpoint coordinate is checked: destination array, column, row,
  // then the source side.
  EXPECT_EQ(ruleOf(isa::makeXfer(0, 0, 0, 4, 0, 0), 4), "address-bounds");
  EXPECT_EQ(ruleOf(isa::makeXfer(0, 0, 0, 1, 16, 0), 4), "address-bounds");
  EXPECT_EQ(ruleOf(isa::makeXfer(0, 0, 0, 1, 0, 16), 4), "address-bounds");
  EXPECT_EQ(ruleOf(isa::makeXfer(0, 16, 0, 1, 0, 0), 4), "address-bounds");
  EXPECT_EQ(ruleOf(isa::makeXfer(0, 0, 16, 1, 0, 0), 4), "address-bounds");
}

TEST(InstructionRules, ListsAreAscendingAndUnique) {
  EXPECT_EQ(ruleOf(isa::makeWrite(0, {5, 3}, 0)), "instruction-shape");
  EXPECT_EQ(ruleOf(isa::makeCimRead(0, {1}, {3, 3}, {ir::OpKind::And})),
            "instruction-shape");
}

TEST(InstructionRules, OpsParallelColumns) {
  EXPECT_EQ(ruleOf(isa::makeCimRead(0, {1, 2}, {3, 4}, {ir::OpKind::And})),
            "instruction-shape");
}

TEST(InstructionRules, RowlessReadChainsEveryColumn) {
  EXPECT_EQ(ruleOf(isa::makeCimRead(0, {1}, {}, {ir::OpKind::Not}, {true})),
            "");
  EXPECT_EQ(
      ruleOf(isa::makeCimRead(0, {1}, {}, {ir::OpKind::Not}, {false})),
      "instruction-shape");
}

/// Acceptance: every program both mappers emit for the paper workloads
/// verifies cleanly, including symbolic DAG equivalence.
class PaperWorkloads : public ::testing::TestWithParam<mapping::Strategy> {};

void expectWorkloadVerifies(const ir::Graph& g, mapping::Strategy strategy) {
  isa::TargetSpec target =
      isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 2);
  mapping::CompileOptions copts;
  copts.strategy = strategy;
  auto compiled = mapping::compile(g, target, copts);
  VerifyResult r = verifyProgram(g, target, compiled.program);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.checkedInstructions,
            static_cast<long>(compiled.program.instructions.size()));
}

TEST_P(PaperWorkloads, Bitweaving) {
  expectWorkloadVerifies(
      transforms::canonicalize(workloads::buildBitweaving({16})),
      GetParam());
}

TEST_P(PaperWorkloads, Sobel) {
  expectWorkloadVerifies(
      transforms::canonicalize(workloads::buildSobel({})), GetParam());
}

TEST_P(PaperWorkloads, AesOneRound) {
  expectWorkloadVerifies(
      transforms::canonicalize(workloads::buildAes({1})), GetParam());
}

INSTANTIATE_TEST_SUITE_P(BothMappers, PaperWorkloads,
                         ::testing::Values(mapping::Strategy::Naive,
                                           mapping::Strategy::Optimized),
                         [](const auto& info) {
                           return info.param == mapping::Strategy::Naive
                                      ? "Naive"
                                      : "Optimized";
                         });

}  // namespace
}  // namespace sherlock::verify
