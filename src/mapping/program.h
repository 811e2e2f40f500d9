// A compiled CIM program: the instruction stream plus the metadata the
// simulator needs (which writes carry host data for which input values,
// and where the graph outputs live when the program finishes).
#pragma once

#include <map>
#include <vector>

#include "ir/graph.h"
#include "isa/instruction.h"
#include "mapping/layout.h"

namespace sherlock::mapping {

/// Code generation statistics, used by the evaluation harnesses
/// (perfbench's per-layer mapping metrics read them). The instruction
/// counters count emissions before merging, one column each; counts of
/// the emitted stream come from mapping::analyzeProgram.
struct CodegenStats {
  long plainReads = 0;       ///< movement loads
  long spillWrites = 0;      ///< intermediate materializations
  long shifts = 0;           ///< row-buffer rotations (movement)
  long mergedInstructions = 0;  ///< instructions saved by merging
  long chainedOperands = 0;  ///< operands consumed from the row buffer
  /// Allocations repaired into the spare-row region (fault-aware
  /// placement only; not an instruction count).
  long spareRowAllocations = 0;
  /// Optimized flow: the round floor of the schedule codegen ran
  /// (mapping::roundFloor), the sum over its steps of the busiest
  /// execution column's op count. One instruction holds at most one op
  /// per column, so no emission of that schedule needs fewer CIM-read
  /// instructions (not an instruction count; 0 for the naive flow).
  long roundFloor = 0;
  /// Floors of the CIM reads under every schedule (not instruction
  /// counts): the most ops placed in one execution column, and the
  /// critical path in ops (the maximum b-level).
  long busiestColumn = 0;
  long criticalPath = 0;
};

struct Program {
  std::vector<isa::Instruction> instructions;

  /// For host-data writes: instruction index -> the leaf value (NodeId)
  /// behind each written column, parallel to that instruction's `columns`.
  std::map<size_t, std::vector<ir::NodeId>> hostWriteValues;

  /// Where each graph output is materialized when the program ends.
  std::map<ir::NodeId, CellAddress> outputCells;

  CodegenStats stats;

  /// Columns actually touched (occupancy metric).
  int usedColumns = 0;
  /// Peak simultaneously live cells (capacity metric).
  int peakLiveCells = 0;
};

}  // namespace sherlock::mapping
