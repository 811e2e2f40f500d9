// Unit tests for the static program verifier (src/verify): every rule is
// exercised with a hand-crafted illegal program and pinned to its
// instruction; valid programs — hand-written micro programs and the three
// paper workloads under both mappers — must verify cleanly.
#include <gtest/gtest.h>

#include "device/faultmap.h"
#include "mapping/compiler.h"
#include "sim/simulator.h"
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

TEST(Verifier, RejectsPerColumnOpsWhenUnsupported) {
  // A two-column read with different ops on a target without per-column
  // multiplexers.
  ir::Graph g;
  ir::NodeId a = g.addInput("a"), b = g.addInput("b");
  ir::NodeId x = g.addOp(ir::OpKind::And, {a, b});
  ir::NodeId y = g.addOp(ir::OpKind::Or, {a, b});
  g.markOutput(x);
  g.markOutput(y);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 0));
  p.hostWriteValues[0] = {a, a};
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 1));
  p.hostWriteValues[1] = {b, b};
  p.instructions.push_back(isa::makeCimRead(
      0, {0, 1}, {0, 1}, {ir::OpKind::And, ir::OpKind::Or}));
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 2));
  p.outputCells[x] = {0, 0, 2};
  p.outputCells[y] = {0, 1, 2};

  isa::TargetSpec uniform = target64();
  uniform.perColumnOps = false;
  VerifyResult r = verifyProgram(g, uniform, p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::PerColumnOps);

  // The same program is legal on the default feature set.
  EXPECT_TRUE(verifyProgram(g, target64(), p).ok());
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

TEST(Verifier, CatchesMisalignedShift) {
  // A value routed through the row buffer with the wrong shift distance
  // lands in a different column; the output write then consumes a buffer
  // bit the program never produced.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makePlainRead(0, {0}, 0));
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 2));
  p.instructions.push_back(isa::makeWrite(0, {3}, 1));  // expects dist 3
  p.outputCells[a] = {0, 3, 1};
  VerifyResult r = verifyProgram(g, target64(), p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().rule, Rule::BufferLiveness);
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
    copts.verify = false;  // verified explicitly with the map below
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

TEST(Verifier, CompileFacadeVerifiesWhenRequested) {
  workloads::RandomDagSpec spec;
  spec.seed = 11;
  ir::Graph g =
      transforms::canonicalize(workloads::buildRandomDag(spec));
  mapping::CompileOptions copts;
  copts.verify = true;
  EXPECT_NO_THROW(mapping::compile(g, target64(), copts));
}

/// Acceptance: every program both mappers emit for the paper workloads
/// verifies cleanly, including symbolic DAG equivalence.
class PaperWorkloads : public ::testing::TestWithParam<mapping::Strategy> {};

void expectWorkloadVerifies(const ir::Graph& g, mapping::Strategy strategy) {
  isa::TargetSpec target =
      isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 2);
  mapping::CompileOptions copts;
  copts.strategy = strategy;
  copts.verify = false;  // verified explicitly for the full report
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
