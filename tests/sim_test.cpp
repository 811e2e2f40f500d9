// Unit tests for the simulator: functional semantics of each instruction
// kind (via hand-written micro programs), timing properties of the posted
// write model, energy accounting, and reliability accumulation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "mapping/compiler.h"
#include "mapping/flow.h"
#include "sim/simulator.h"
#include "transforms/substitution.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock::sim {
namespace {

using isa::Instruction;
using isa::ShiftDirection;

isa::TargetSpec target64(device::TechnologyParams tech =
                             device::TechnologyParams::reRam(),
                         int mra = 4) {
  return isa::TargetSpec::square(64, std::move(tech), mra);
}

/// Builds a two-op graph and a hand-written program computing it, to pin
/// down the exact functional semantics of the ISA.
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
  // Host loads: a->(0,0,0), b->(0,0,1), c->(0,0,2).
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {m.a};
  p.instructions.push_back(isa::makeWrite(0, {0}, 1));
  p.hostWriteValues[1] = {m.b};
  p.instructions.push_back(isa::makeWrite(0, {0}, 2));
  p.hostWriteValues[2] = {m.c};
  // x = AND rows 0,1; buffer chains into the XOR with row 2.
  p.instructions.push_back(
      isa::makeCimRead(0, {0}, {0, 1}, {ir::OpKind::And}));
  p.instructions.push_back(
      isa::makeCimRead(0, {0}, {2}, {ir::OpKind::Xor}, {true}));
  // Materialize the output at row 3.
  p.instructions.push_back(isa::makeWrite(0, {0}, 3));
  p.outputCells[m.y] = {0, 0, 3};
  return m;
}

TEST(Simulator, MicroProgramVerifies) {
  MicroProgram m = makeMicro();
  auto t = target64();
  SimOptions opts;
  opts.inputs = {{"a", 0b1100}, {"b", 0b1010}, {"c", 0b0110}};
  auto res = simulate(m.g, t, m.prog, opts);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.instructionCount, 6);
  EXPECT_EQ(res.cimColumnOps, 2);
}

TEST(Simulator, DetectsWrongProgram) {
  MicroProgram m = makeMicro();
  // Corrupt the CIM op: OR instead of AND.
  m.prog.instructions[3].colOps[0] = ir::OpKind::Or;
  auto t = target64();
  SimOptions opts;
  opts.inputs = {{"a", 0b1100}, {"b", 0b1010}, {"c", 0b0110}};
  EXPECT_THROW(simulate(m.g, t, m.prog, opts), SimulationError);
}

TEST(Simulator, ReadOfUnwrittenCellThrows) {
  MicroProgram m = makeMicro();
  m.prog.instructions[3].rows = {0, 5};  // row 5 never written
  // The static pre-verification pins the violation to the instruction.
  try {
    simulate(m.g, target64(), m.prog);
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& e) {
    EXPECT_EQ(e.instructionIndex(), 3);
    EXPECT_STREQ(e.rule().c_str(), "read-before-write");
  }
  // The dynamic execution guard still catches it when static
  // verification is off.
  SimOptions raw;
  raw.staticVerify = false;
  EXPECT_THROW(simulate(m.g, target64(), m.prog, raw), SimulationError);
}

TEST(Simulator, UnwrittenRowErrorsNameInstructionAndCell) {
  // Rows never written hold no state at all; sensing one must still
  // fail with the instruction index and the cell.
  SimOptions raw;
  raw.staticVerify = false;
  auto message = [&](const ir::Graph& g, const mapping::Program& p) {
    try {
      simulate(g, target64(), p, raw);
    } catch (const SimulationError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  MicroProgram m = makeMicro();
  m.prog.instructions[3].rows = {0, 5};
  EXPECT_EQ(message(m.g, m.prog),
            "instruction 3: read of unwritten cell (0,5,0)");

  MicroProgram x = makeMicro();
  x.prog.instructions.insert(x.prog.instructions.begin() + 3,
                             isa::makeXfer(0, 2, 9, 1, 4, 0));
  EXPECT_EQ(message(x.g, x.prog),
            "instruction 3: transfer of unwritten cell (0,9,2)");
}

TEST(Simulator, HostValuesOnANonWriteAreIgnoredWithoutStaticVerify) {
  // A plain read between the host writes carries a host-value entry: the
  // verifier rejects the table, the raw simulator skips the entry and
  // still loads every later host write from its own entry.
  MicroProgram m = makeMicro();
  m.prog.instructions.insert(m.prog.instructions.begin() + 1,
                             isa::makePlainRead(0, {0}, 0));
  m.prog.hostWriteValues = {{0, {m.a}}, {1, {m.c}}, {2, {m.b}}, {3, {m.c}}};
  SimOptions opts;
  opts.inputs = {{"a", 0b1100}, {"b", 0b1010}, {"c", 0b0110}};
  try {
    simulate(m.g, target64(), m.prog, opts);
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& e) {
    EXPECT_EQ(e.instructionIndex(), 1);
    EXPECT_STREQ(e.rule().c_str(), "host-write-metadata");
  }
  opts.staticVerify = false;
  EXPECT_TRUE(simulate(m.g, target64(), m.prog, opts).verified);
}

TEST(Simulator, BufferWriteBeforeAHostWriteLeavesItsValueAlone) {
  // A write from the buffer sits between two host writes; it must not
  // take the next host write's value.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId b = g.addInput("b");
  g.markOutput(a);
  g.markOutput(b);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.instructions.push_back(isa::makePlainRead(0, {0}, 0));
  p.instructions.push_back(isa::makeWrite(0, {0}, 1));
  p.instructions.push_back(isa::makeWrite(0, {0}, 2));
  p.hostWriteValues = {{0, {a}}, {3, {b}}};
  p.outputCells[a] = {0, 0, 1};
  p.outputCells[b] = {0, 0, 2};
  EXPECT_TRUE(simulate(g, target64(), p).verified);
}

TEST(Simulator, ChainOfInvalidBufferThrows) {
  MicroProgram m = makeMicro();
  // Make the chained XOR the first read: buffer invalid.
  std::swap(m.prog.instructions[3], m.prog.instructions[4]);
  try {
    simulate(m.g, target64(), m.prog);
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& e) {
    EXPECT_EQ(e.instructionIndex(), 3);
    EXPECT_STREQ(e.rule().c_str(), "buffer-liveness");
  }
  SimOptions raw;
  raw.staticVerify = false;
  EXPECT_THROW(simulate(m.g, target64(), m.prog, raw), SimulationError);
}

TEST(Simulator, ShiftMovesBufferBits) {
  // One value read into column 0, shifted to column 3, written there.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makePlainRead(0, {0}, 0));
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 3));
  p.instructions.push_back(isa::makeWrite(0, {3}, 1));
  p.outputCells[a] = {0, 3, 1};
  auto res = simulate(g, target64(), p);
  EXPECT_TRUE(res.verified);
}

TEST(Simulator, RightShiftWrapsAround) {
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {2}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makePlainRead(0, {2}, 0));
  // Right by 5 from column 2 wraps to column (2 - 5 + 64) % 64 = 61.
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Right, 5));
  p.instructions.push_back(isa::makeWrite(0, {61}, 1));
  p.outputCells[a] = {0, 61, 1};
  EXPECT_TRUE(simulate(g, target64(), p).verified);
}

// ------------------------------------------- row buffer under rotation

/// `a` host-written to (row 0, column `col`) of array 0 and latched into
/// the buffer by a plain read.
mapping::Program latched(ir::NodeId a, int col) {
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {col}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makePlainRead(0, {col}, 0));
  return p;
}

TEST(BufferRotation, ShiftsComposePastTheWidth) {
  // 40 + 30 = 70 positions on 64 columns: column 5 lands on 11.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p = latched(a, 5);
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 40));
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 30));
  p.instructions.push_back(isa::makeWrite(0, {11}, 1));
  p.outputCells[a] = {0, 11, 1};
  EXPECT_TRUE(simulate(g, target64(), p).verified);
}

TEST(BufferRotation, ChainedReadConsumesARotatedBit) {
  // a moves from column 2 to 6, where a chained XOR with b (row 1,
  // column 6) consumes it.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId b = g.addInput("b");
  ir::NodeId x = g.addOp(ir::OpKind::Xor, {a, b});
  g.markOutput(x);
  mapping::Program p = latched(a, 2);
  p.instructions.push_back(isa::makeWrite(0, {6}, 1));
  p.hostWriteValues[2] = {b};
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 4));
  p.instructions.push_back(
      isa::makeCimRead(0, {6}, {1}, {ir::OpKind::Xor}, {true}));
  p.instructions.push_back(isa::makeWrite(0, {6}, 2));
  p.outputCells[x] = {0, 6, 2};
  SimOptions opts;
  opts.inputs = {{"a", 0b1100}, {"b", 0b1010}};
  EXPECT_TRUE(simulate(g, target64(), p, opts).verified);
}

TEST(BufferRotation, ChainedReadOfAColumnTheShiftVacatedThrows) {
  // After the shift, a sits in column 6 and column 2 holds no bit.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId x = g.addOp(ir::OpKind::Not, {a});
  g.markOutput(x);
  mapping::Program p = latched(a, 2);
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 4));
  p.instructions.push_back(
      isa::makeCimRead(0, {2}, {0}, {ir::OpKind::And}, {true}));
  SimOptions raw;
  raw.staticVerify = false;
  raw.verify = false;
  try {
    simulate(g, target64(), p, raw);
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_STREQ(e.what(),
                 "instruction 3: chained read of invalid buffer column 2 "
                 "of array 0");
  }
}

TEST(BufferRotation, ShiftLeavesOtherArraysInPlace) {
  // Both arrays latch a bit in column 1; only array 0 shifts.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId b = g.addInput("b");
  g.markOutput(a);
  g.markOutput(b);
  mapping::Program p = latched(a, 1);
  p.instructions.push_back(isa::makeWrite(1, {1}, 0));
  p.hostWriteValues[2] = {b};
  p.instructions.push_back(isa::makePlainRead(1, {1}, 0));
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 3));
  p.instructions.push_back(isa::makeWrite(1, {1}, 1));
  p.instructions.push_back(isa::makeWrite(0, {4}, 1));
  p.outputCells[a] = {0, 4, 1};
  p.outputCells[b] = {1, 1, 1};
  isa::TargetSpec t = target64();
  t.numArrays = 2;
  EXPECT_TRUE(simulate(g, t, p).verified);
}

TEST(BufferRotation, DistanceOfTheWidthOrMoreWrapsWithoutStaticVerify) {
  // The verifier rejects L[cols + 3]; the raw simulator runs it as L[3].
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p = latched(a, 0);
  p.instructions.push_back(isa::makeShift(0, ShiftDirection::Left, 64 + 3));
  p.instructions.push_back(isa::makeWrite(0, {3}, 1));
  p.outputCells[a] = {0, 3, 1};
  EXPECT_THROW(simulate(g, target64(), p), VerificationError);
  SimOptions raw;
  raw.staticVerify = false;
  EXPECT_TRUE(simulate(g, target64(), p, raw).verified);
}

TEST(Simulator, XfersShareTheBus) {
  // Three back-to-back xfers share the one bus: each queues behind the
  // one before it, and the third forwards the first one's landed cell,
  // so it also stalls on that posted landing write. The exact totals pin
  // the bus cost (10 ns and 0.5 pJ per bulk bit per leg) bit for bit.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {1}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(isa::makeXfer(0, 1, 0, 2, 3, 4));
  p.instructions.push_back(isa::makeXfer(0, 1, 0, 3, 5, 6));
  p.instructions.push_back(isa::makeXfer(2, 3, 4, 1, 7, 0));
  p.outputCells[a] = {1, 7, 0};
  auto res = simulate(g, target64(), p);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.latencyNs, 219.256);
  EXPECT_EQ(res.energyPj, 4580.4864000000007);
  EXPECT_EQ(res.busBusyNs, 30.0);
  EXPECT_EQ(res.busWaitNs, 5.4039999999999964);
}

TEST(Simulator, MergedReadComputesPerColumnOps) {
  // Two columns, same rows, different ops in one instruction.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId b = g.addInput("b");
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
  auto res = simulate(g, target64(), p);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.cimColumnOps, 2);
}

// ------------------------------------------------------------ timing

TEST(Timing, ReadAfterWriteStalls) {
  // write row 0 then immediately read it -> the read must stall for the
  // programming latency; with an unrelated row in between, no stall.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId x = g.addOp(ir::OpKind::Not, {a});
  g.markOutput(x);
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {0}, 0));
  p.hostWriteValues[0] = {a};
  p.instructions.push_back(
      isa::makeCimRead(0, {0}, {0}, {ir::OpKind::Not}));
  p.instructions.push_back(isa::makeWrite(0, {0}, 1));
  p.outputCells[x] = {0, 0, 1};
  auto res = simulate(g, target64(), p);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.stallNs, 0.0);
  // The stall should be roughly the technology write latency.
  EXPECT_GT(res.stallNs, target64().tech.writeLatencyNs * 0.5);
}

TEST(Timing, MergedWriteStallsEveryColumn) {
  // One write programs columns 0 and 1 of row 0; a read sensing only
  // column 1 right after still stalls on it.
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId b = g.addInput("b");
  g.markOutput(g.addOp(ir::OpKind::And, {a, b}));
  mapping::Program p;
  p.instructions.push_back(isa::makeWrite(0, {0, 1}, 0));
  p.hostWriteValues[0] = {a, b};
  p.instructions.push_back(isa::makeCimRead(0, {1}, {0}, {ir::OpKind::Not}));
  SimOptions opts;
  opts.verify = false;
  opts.staticVerify = false;
  opts.traceStalls = true;
  auto res = simulate(g, target64(), p, opts);
  ASSERT_EQ(res.stallEvents.size(), 1u);
  EXPECT_EQ(res.stallEvents[0].instructionIndex, 1u);
  EXPECT_EQ(res.stallEvents[0].writeDistance, 1);
  EXPECT_GT(res.stallNs, target64().tech.writeLatencyNs * 0.5);
}

/// FNV-1a digest of a stall trace: (instruction, stall ns, write
/// distance) per event, ns printed exactly.
uint64_t stallDigest(const std::vector<StallEvent>& events) {
  std::ostringstream text;
  text.precision(17);
  for (const StallEvent& e : events)
    text << e.instructionIndex << ' ' << e.stallNs << ' ' << e.writeDistance
         << '\n';
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : text.str()) h = (h ^ c) * 1099511628211ULL;
  return h;
}

TEST(Timing, StallTraceOfPaperConfigIsStable) {
  // Sobel (16 wide) on ReRAM 1024^2, MRA 2, both mappers: the recorded
  // read-after-write stalls are a fixed function of the program. A
  // change to the timing model regenerates these with
  // SHERLOCK_GOLDEN_PRINT=1 and explains the difference.
  struct Expected {
    mapping::Strategy strategy;
    size_t events;
    uint64_t digest;
  };
  const Expected expected[] = {
      {mapping::Strategy::Naive, 3208, 0xe6ceb676881643ccULL},
      {mapping::Strategy::Optimized, 53, 0x9880c64692d4cadcULL},
  };
  workloads::SobelSpec spec;
  spec.width = 16;
  ir::Graph g = workloads::buildSobel(spec);
  auto target = isa::TargetSpec::square(
      1024, device::TechnologyParams::reRam(), 2);
  for (const Expected& e : expected) {
    mapping::CompileOptions copts;
    copts.strategy = e.strategy;
    auto compiled = mapping::compile(g, target, copts);
    SimOptions opts;
    opts.traceStalls = true;
    auto res = simulate(g, target, compiled.program, opts);
    if (std::getenv("SHERLOCK_GOLDEN_PRINT"))
      std::printf("  {%zu, 0x%016llxULL},\n", res.stallEvents.size(),
                  static_cast<unsigned long long>(
                      stallDigest(res.stallEvents)));
    EXPECT_EQ(res.stallEvents.size(), e.events);
    EXPECT_EQ(stallDigest(res.stallEvents), e.digest);
  }
}

TEST(Timing, LatencyPartsSumToLatencyOnPaperBatch) {
  // The paper trio, both mappers, ReRAM 1024^2 at MRA 2 and 512^2 at
  // MRA 4: stall plus the per-cause parts account for every nanosecond.
  workloads::BitweavingSpec bw;
  bw.bits = 16;
  bw.segments = 32;
  workloads::SobelSpec sobel;
  sobel.width = 16;
  const ir::Graph kernels[] = {workloads::buildBitweaving(bw),
                               workloads::buildSobel(sobel),
                               workloads::buildAes({10})};
  for (const ir::Graph& raw : kernels) {
    for (auto strategy :
         {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
      for (auto [dim, mra] : {std::pair{1024, 2}, std::pair{512, 4}}) {
        auto target = isa::TargetSpec::square(
            dim, device::TechnologyParams::reRam(), mra);
        mapping::FlowOptions options;
        options.strategy = strategy;
        auto flow = mapping::compileFlow(raw, target, options);
        SimOptions opts;
        opts.staticVerify = false;  // compileFlow verified it
        auto res = simulate(flow.graph, target, flow.compiled.program, opts);
        EXPECT_NEAR(res.attributedNs(), res.latencyNs,
                    1e-9 * res.latencyNs)
            << dim << "^2 MRA " << mra;
        EXPECT_GT(res.dispatchNs, 0.0);
        EXPECT_GT(res.cimSenseNs, 0.0);
        EXPECT_GT(res.writeIssueNs, 0.0);
      }
    }
  }
}

TEST(Timing, EnergyPartsSumToEnergyOnPaperBatch) {
  // The paper trio, both mappers, ReRAM 1024^2 at MRA 2 and 512^2 at
  // MRA 4: the per-cause parts account for every picojoule.
  workloads::BitweavingSpec bw;
  bw.bits = 16;
  bw.segments = 32;
  workloads::SobelSpec sobel;
  sobel.width = 16;
  const ir::Graph kernels[] = {workloads::buildBitweaving(bw),
                               workloads::buildSobel(sobel),
                               workloads::buildAes({10})};
  for (const ir::Graph& raw : kernels) {
    for (auto strategy :
         {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
      for (auto [dim, mra] : {std::pair{1024, 2}, std::pair{512, 4}}) {
        auto target = isa::TargetSpec::square(
            dim, device::TechnologyParams::reRam(), mra);
        mapping::FlowOptions options;
        options.strategy = strategy;
        auto flow = mapping::compileFlow(raw, target, options);
        SimOptions opts;
        opts.staticVerify = false;  // compileFlow verified it
        auto res = simulate(flow.graph, target, flow.compiled.program, opts);
        EXPECT_NEAR(res.attributedPj(), res.energyPj, 1e-9 * res.energyPj)
            << dim << "^2 MRA " << mra;
        EXPECT_GT(res.dispatchPj, 0.0);
        EXPECT_GT(res.cimSensePj, 0.0);
        EXPECT_GT(res.hostWritePj, 0.0);
        EXPECT_GT(res.spillWritePj, 0.0);
      }
    }
  }
}

TEST(Timing, SttWritesCheaperThanReRam) {
  // Same write-heavy micro program on both technologies.
  auto makeProg = [](ir::NodeId a, ir::NodeId x) {
    mapping::Program p;
    p.instructions.push_back(isa::makeWrite(0, {0}, 0));
    p.hostWriteValues[0] = {a};
    for (int i = 0; i < 8; ++i) {
      p.instructions.push_back(
          isa::makeCimRead(0, {0}, {i}, {ir::OpKind::Not}));
      p.instructions.push_back(isa::makeWrite(0, {0}, i + 1));
    }
    p.outputCells[x] = {0, 0, 8};
    return p;
  };
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId x = a;
  for (int i = 0; i < 8; ++i) x = g.addOp(ir::OpKind::Not, {x});
  g.markOutput(x);
  auto prog = makeProg(a, x);
  auto reram = simulate(g, target64(device::TechnologyParams::reRam()), prog);
  auto stt = simulate(g, target64(device::TechnologyParams::sttMram()), prog);
  EXPECT_GT(reram.latencyNs, stt.latencyNs * 2);
}

TEST(Timing, EnergyAndEdpPositive) {
  ir::Graph g = workloads::buildBitweaving({8});
  auto t = target64();
  auto compiled = mapping::compile(g, t);
  auto res = simulate(g, t, compiled.program);
  EXPECT_GT(res.energyUj(), 0.0);
  EXPECT_GT(res.edp(), 0.0);
  EXPECT_NEAR(res.edp(), res.energyUj() * res.latencyUs(), 1e-12);
}

// -------------------------------------------------------- reliability

TEST(Reliability, WiderMraRaisesPapp) {
  ir::Graph base = workloads::buildBitweaving({16});
  auto t2 = isa::TargetSpec::square(512,
                                    device::TechnologyParams::reRam(), 2);
  auto t6 = isa::TargetSpec::square(512,
                                    device::TechnologyParams::reRam(), 6);
  auto c2 = mapping::compile(base, t2);
  auto r2 = simulate(base, t2, c2.program);

  transforms::SubstitutionOptions sopt;
  sopt.maxOperands = 6;
  auto merged = transforms::substituteNodes(base, sopt);
  auto c6 = mapping::compile(merged.graph, t6);
  auto r6 = simulate(merged.graph, t6, c6.program);

  EXPECT_GT(r6.pApp, r2.pApp);        // wider ops, higher failure odds
  EXPECT_LT(r6.cimColumnOps, r2.cimColumnOps);  // but fewer operations
}

TEST(Reliability, SttLessReliableThanReRam) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto tr = isa::TargetSpec::square(512,
                                    device::TechnologyParams::reRam(), 2);
  auto ts = isa::TargetSpec::square(512,
                                    device::TechnologyParams::sttMram(), 2);
  auto cr = mapping::compile(g, tr);
  auto cs = mapping::compile(g, ts);
  double pReram = simulate(g, tr, cr.program).pApp;
  double pStt = simulate(g, ts, cs.program).pApp;
  EXPECT_GT(pStt, pReram * 10);
}

TEST(Simulator, DefaultInputWordsDeterministic) {
  EXPECT_EQ(defaultInputWord("x", 1), defaultInputWord("x", 1));
  EXPECT_NE(defaultInputWord("x", 1), defaultInputWord("y", 1));
  EXPECT_NE(defaultInputWord("x", 1), defaultInputWord("x", 2));
}

TEST(Simulator, DefaultInputWordsDistinctPerLaneWord) {
  // Lane words of one input are consecutive draws of one stream: all
  // distinct, and word 0 reproduces the historical 2-argument form.
  EXPECT_EQ(defaultInputWord("x", 1, 0), defaultInputWord("x", 1));
  EXPECT_NE(defaultInputWord("x", 1, 0), defaultInputWord("x", 1, 1));
  EXPECT_NE(defaultInputWord("x", 1, 1), defaultInputWord("x", 1, 2));
  EXPECT_EQ(defaultInputWord("x", 1, 3), defaultInputWord("x", 1, 3));
}

TEST(PackedLanes, MicroProgramVerifiesAtLaneWords4) {
  MicroProgram m = makeMicro();
  auto t = target64();
  SimOptions opts;
  opts.laneWords = 4;
  opts.wideInputs = {
      {"a", {0b1100, ~uint64_t{0}, 0, 0x0f0f0f0f0f0f0f0fULL}},
      {"b", {0b1010, 0x5555555555555555ULL, ~uint64_t{0}, 1}},
      {"c", {0b0110, 7, 0xffff0000ffff0000ULL, 0}}};
  auto res = simulate(m.g, t, m.prog, opts);
  // Internal verification compares all 256 lanes against the packed
  // reference evaluator; counters stay per-instruction, not per-lane.
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.instructionCount, 6);
  EXPECT_EQ(res.cimColumnOps, 2);
  EXPECT_EQ(res.corruptedLaneWords.size(), 4u);
}

TEST(PackedLanes, ScalarInputsFillLaneWordZero) {
  // The scalar `inputs` map seeds lane word 0 while words 1.. synthesize
  // from defaultInputWord — the mixed resolution path must verify. (The
  // differential fuzz pins the actual word-0 values against the packed
  // evaluator fed explicit per-word inputs.)
  MicroProgram m = makeMicro();
  auto t = target64();
  SimOptions opts;
  opts.laneWords = 2;
  opts.inputs = {{"a", 0b1100}, {"b", 0b1010}, {"c", 0b0110}};
  EXPECT_TRUE(simulate(m.g, t, m.prog, opts).verified);
}

TEST(PackedLanes, WideInputSizeMismatchThrows) {
  MicroProgram m = makeMicro();
  auto t = target64();
  SimOptions opts;
  opts.laneWords = 4;
  opts.wideInputs = {{"a", {1, 2, 3}}};  // 3 words, laneWords = 4
  EXPECT_THROW(simulate(m.g, t, m.prog, opts), Error);
}

TEST(PackedLanes, LaneWordsMustBePositive) {
  MicroProgram m = makeMicro();
  SimOptions opts;
  opts.laneWords = 0;
  EXPECT_THROW(simulate(m.g, target64(), m.prog, opts), Error);
}

}  // namespace
}  // namespace sherlock::sim

namespace sherlock::sim {
namespace {

TEST(FaultInjection, ZeroProbabilityInjectsNothing) {
  // ReRAM 2-operand AND ops have negligible P_DF; injection should almost
  // surely leave the program intact.
  ir::Graph g = workloads::buildBitweaving({8});
  auto t = isa::TargetSpec::square(128,
                                   device::TechnologyParams::reRam(), 2);
  auto compiled = mapping::compile(g, t);
  SimOptions opts;
  opts.injectFaults = true;
  auto r = simulate(g, t, compiled.program, opts);
  EXPECT_EQ(r.injectedFaults, 0);
  EXPECT_EQ(r.corruptedLanes(), 0);
}

TEST(FaultInjection, HighProbabilityCorruptsOutputs) {
  // STT-MRAM native XOR at 2 rows is unreliable enough that a kernel full
  // of XORs gets corrupted lanes across a few seeds.
  ir::Graph g = workloads::buildBitweaving({16});
  auto t = isa::TargetSpec::square(
      512, device::TechnologyParams::sttMram(), 2);
  auto compiled = mapping::compile(g, t);
  long faults = 0;
  uint64_t corrupted = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SimOptions opts;
    opts.injectFaults = true;
    opts.faultSeed = seed;
    auto r = simulate(g, t, compiled.program, opts);
    faults += r.injectedFaults;
    corrupted |= r.corruptedLaneWords[0];
  }
  EXPECT_GT(faults, 0);
  EXPECT_NE(corrupted, 0u);
}

TEST(FaultInjection, DeterministicPerSeed) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto t = isa::TargetSpec::square(
      512, device::TechnologyParams::sttMram(), 2);
  auto compiled = mapping::compile(g, t);
  SimOptions opts;
  opts.injectFaults = true;
  opts.faultSeed = 7;
  auto r1 = simulate(g, t, compiled.program, opts);
  auto r2 = simulate(g, t, compiled.program, opts);
  EXPECT_EQ(r1.injectedFaults, r2.injectedFaults);
  EXPECT_EQ(r1.corruptedLaneWords, r2.corruptedLaneWords);
}

TEST(FaultInjection, StuckOperandSurvivesDegradedSensingUnflipped) {
  // Regression: degraded sensing re-samples every operand as a single-row
  // plain read and injects plain-read decision failures into each sample.
  // An operand sensed from a stuck cell is physically pinned — no sense
  // margin, however degraded, can flip it — so it must be exempt from
  // injection. The old code injected it like a live cell.
  //
  // Setup: x = And(a, b) with a's cell stuck-at-LRS (pinned '0') and
  // input a = 0 so the pinned behavior matches the reference. Crank the
  // plain-read P_DF to ~0.3 via reference noise and force every scouting
  // op to degrade (degradePdfThreshold = 0). Injected flips in b are
  // masked by the AND with the all-zero a; the output can only corrupt
  // if the pinned operand itself is (wrongly) injected — with ~0.21
  // corruption probability per lane under the old behavior, 256 clean
  // lanes across 10 seeds refute it at astronomical confidence.
  device::TechnologyParams tech = device::TechnologyParams::sttMram();
  tech.referenceSigmaFrac = 1.0;  // P_DF(PlainRead, 1) ~ Q(0.5) ~ 0.31
  auto t = isa::TargetSpec::square(64, tech, 2);

  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  ir::NodeId b = g.addInput("b");
  ir::NodeId x = g.addOp(ir::OpKind::And, {a, b});
  g.markOutput(x);

  mapping::Program prog;
  prog.instructions.push_back(isa::makeWrite(0, {0}, 0));
  prog.hostWriteValues[0] = {a};
  prog.instructions.push_back(isa::makeWrite(0, {0}, 1));
  prog.hostWriteValues[1] = {b};
  prog.instructions.push_back(
      isa::makeCimRead(0, {0}, {0, 1}, {ir::OpKind::And}));
  prog.instructions.push_back(isa::makeWrite(0, {0}, 2));
  prog.outputCells[x] = {0, 0, 2};

  device::FaultMap map(t.numArrays, t.rows(), t.cols());
  map.setFault(0, 0, 0, device::CellFault::StuckAtLrs);  // a's cell

  long injected = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimOptions opts;
    opts.laneWords = 4;
    opts.wideInputs = {{"a", {0, 0, 0, 0}},
                       {"b", std::vector<uint64_t>(4, ~uint64_t{0})}};
    opts.faultMap = &map;
    opts.injectFaults = true;
    opts.faultSeed = seed;
    opts.guardedExecution = true;
    opts.degradePdfThreshold = 0.0;  // degrade every scouting op
    auto r = simulate(g, t, prog, opts);
    EXPECT_GT(r.stuckCellReads, 0);
    EXPECT_GT(r.degradedOps, 0);
    EXPECT_EQ(r.corruptedLanes(), 0)
        << "stuck-LRS operand was flipped by injection (seed " << seed
        << ")";
    injected += r.injectedFaults;
  }
  // The live operand b does get injected (that is what the AND masks):
  // the exemption is specific to the stuck cell, not injection generally.
  EXPECT_GT(injected, 0);
}

TEST(FaultInjection, DoesNotPerturbTimingOrEnergy) {
  ir::Graph g = workloads::buildBitweaving({12});
  auto t = isa::TargetSpec::square(
      256, device::TechnologyParams::sttMram(), 2);
  auto compiled = mapping::compile(g, t);
  auto clean = simulate(g, t, compiled.program);
  SimOptions opts;
  opts.injectFaults = true;
  auto faulty = simulate(g, t, compiled.program, opts);
  EXPECT_DOUBLE_EQ(clean.latencyNs, faulty.latencyNs);
  EXPECT_DOUBLE_EQ(clean.energyPj, faulty.energyPj);
  EXPECT_DOUBLE_EQ(clean.pApp, faulty.pApp);
}

}  // namespace
}  // namespace sherlock::sim
