// Static program verifier: checks a compiled mapping::Program
// instruction-by-instruction against the target's ISA and array
// constraints WITHOUT executing it, and (optionally) proves the program
// structurally equivalent to its source DAG by symbolic value numbering.
//
// The verifier is the correctness net under the mappers: the simulator
// only detects a miscompile when the corrupted value happens to reach an
// output under the chosen inputs, while the rules below reject illegal
// programs outright and pin the failure to one instruction.
//
// Rules checked (paper Sec. 2.1 / 3, Fig. 4 semantics):
//  * AddressBounds     — array ids, rows, columns, xfer targets in range.
//  * InstructionShape  — sorted/unique column & row lists, parallel
//                        colOps/chainsBuffer vectors, one destination row
//                        per write, one activated row per plain read,
//                        rowless reads chain every column, shift distances
//                        in [1, cols).  All column-ops of one instruction
//                        share the activated row set by construction (a
//                        single rows list per instruction); the shape rule
//                        enforces that encoding.
//  * MraExceeded       — a CIM read activates at most mraLimit() rows.
//  * PerColumnOps      — without per-column multiplexers, every sensed
//                        column of an instruction performs the same op.
//  * BufferChaining    — "+B" operands only when the target supports
//                        row-buffer operand chaining.
//  * OperandArity      — unary ops (NOT/COPY) sense exactly one bit,
//                        multi-operand ops at least two.
//  * ReadBeforeWrite   — every sensed cell was written earlier.
//  * BufferLiveness    — every consumed row-buffer bit (chained read,
//                        buffered write, shifted buffer) was produced by
//                        a prior read.
//  * HostWriteMetadata — hostWriteValues entries reference write
//                        instructions and leaf (input/const) nodes, one
//                        per written column.
//  * OutputPlacement   — every graph output has a recorded, in-bounds,
//                        written cell.
//  * FaultAvoidance    — with a fault map, no read senses, no write
//                        targets and no transfer endpoint touches a
//                        stuck-at cell (fault-aware placement must have
//                        routed around every persistent defect).
//  * TransferLegality  — an XFER crosses arrays (same-array transfers
//                        are shift/write territory) and the destination
//                        row is not in the spare-reserved repair region
//                        (see VerifyOptions::spareRows).
//  * ValueEquivalence  — symbolic execution assigns every cell/buffer bit
//                        a hash-consed value number; each output cell's
//                        number must equal the number of its DAG node.
//                        This is what catches two live values mapped to
//                        one cell, clobbered spills and misaligned shifts:
//                        any such bug makes an output hold the wrong
//                        symbolic value regardless of concrete inputs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "device/faultmap.h"
#include "ir/graph.h"
#include "isa/target.h"
#include "mapping/program.h"

namespace sherlock::verify {

enum class Rule {
  AddressBounds,
  InstructionShape,
  MraExceeded,
  PerColumnOps,
  BufferChaining,
  OperandArity,
  ReadBeforeWrite,
  BufferLiveness,
  HostWriteMetadata,
  OutputPlacement,
  FaultAvoidance,
  TransferLegality,
  ValueEquivalence,
};

/// Stable rule name ("read-before-write", ...) used in diagnostics.
const char* ruleName(Rule rule);

/// One verification failure, anchored to an instruction (and cell, when
/// the rule concerns one) so regressions are directly actionable.
struct Violation {
  static constexpr size_t kNoInstruction = static_cast<size_t>(-1);

  Rule rule = Rule::InstructionShape;
  /// Index into Program::instructions, or kNoInstruction for program-level
  /// violations (metadata, outputs).
  size_t instructionIndex = kNoInstruction;
  /// Cell/buffer coordinates when the rule concerns one; -1 otherwise.
  int arrayId = -1;
  int row = -1;
  int col = -1;
  std::string message;

  /// "instruction 12: read-before-write: ..." rendering.
  std::string toString() const;
};

struct VerifyOptions {
  /// Run the symbolic value-numbering equivalence check against the DAG
  /// (skipped automatically when structural rules already failed).
  bool checkEquivalence = true;
  /// Stop collecting after this many violations.
  size_t maxViolations = 16;
  /// With a fault map, enforce FaultAvoidance: the program must not sense
  /// or program any stuck-at cell. Dimensions must match the target.
  const device::FaultMap* faultMap = nullptr;
  /// Rows reserved per column for spare-row repair (mapping::FaultPolicy).
  /// When positive, TransferLegality rejects any XFER whose destination
  /// row lands in the reserved region [rows - spareRows, rows): the
  /// transfer engine programs cells directly, bypassing the repair
  /// remapping that regular writes go through.
  int spareRows = 0;
};

struct VerifyResult {
  std::vector<Violation> violations;
  long checkedInstructions = 0;

  bool ok() const { return violations.empty(); }
  /// Multi-line report of every violation (empty string when ok).
  std::string summary() const;
};

/// Verifies `program` (compiled from `g`) against `target`. Never throws
/// on an illegal program — violations are returned for inspection.
VerifyResult verifyProgram(const ir::Graph& g, const isa::TargetSpec& target,
                           const mapping::Program& program,
                           const VerifyOptions& options = {});

/// Throwing wrapper: raises VerificationError carrying the first
/// violation's rule and instruction index (message lists every violation).
void checkProgram(const ir::Graph& g, const isa::TargetSpec& target,
                  const mapping::Program& program,
                  const VerifyOptions& options = {});

/// Checks only the per-instruction rules (bounds, shape, MRA, per-column
/// op and chaining legality) of a single instruction against the target —
/// no cross-instruction dataflow. Returns the first violation, if any.
/// This is the one statement of instruction legality: verifyProgram
/// applies it to every instruction, and nothing else re-checks it.
/// Exposed for property tests that validate instruction streams produced
/// outside a full Program (e.g. clustering invariants).
std::optional<Violation> checkInstructionRules(const isa::Instruction& inst,
                                               const isa::TargetSpec& target,
                                               size_t index = 0);

}  // namespace sherlock::verify
