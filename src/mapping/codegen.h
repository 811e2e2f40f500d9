// Code generation (paper Sec. 3.2.1 / 3.3.2): turns a DAG plus a placement
// plan into the CIM instruction stream.
//
// Codegen walks the steps of a schedule (schedule.h): the optimized flow
// runs the wave schedule with the lower round floor, the naive flow
// b-level waves. A step's ops are mutually independent, so the steps
// interleave independent chains — this is what lets the posted-write
// timing model hide programming latency — and codegen emits, per op:
//
//   1. movement: operands not present in the op's execution column are
//      fetched (plain read -> shift -> write, or an inter-array xfer),
//   2. the scouting CIM read (multi-row activation over the operand rows,
//      optionally chaining the column's latched row-buffer bit), and
//   3. lazy materialization: results stay in the row buffer and are only
//      written to a cell when the buffer slot is about to be reused (or
//      the value is needed elsewhere / is a graph output).
//
// The optimized flow does each step's movement first, then emits its CIM
// reads in column-parallel rounds: round r holds the r-th op of every
// execution column (each column's ops oldest operands first). Before a
// round, the latched values its reads would displace are flushed — two
// or more on one array into a row free in all of their columns, so the
// writes fold into one and later reads of those values activate the same
// rows. Each op's chained operand (the one it takes from the row buffer)
// is decided once, at the start of its round. The round then emits its
// shift-free ops (no chained operand, or one already latched in the op's
// column), then one group per (array, rotation): the group's chained
// operands are plain-read where not yet latched, rotated into place by
// one shift, and consumed by the group's reads. Each part's reads go in
// the order of the rows they activate.
//
// Cross-cluster instruction merging (Sec. 3.3.3) is performed inline:
// an emitted instruction is folded into its immediate predecessor whenever
// the two are a same-array read pair with identical activated rows (or a
// same-row write pair) on disjoint columns — exactly the legality the
// paper's dependency check enforces, restricted to adjacent instructions,
// where it is trivially safe. The rounds and aligned flushes are what
// make such pairs adjacent.
#pragma once

#include "ir/graph.h"
#include "isa/target.h"
#include "mapping/placement.h"
#include "mapping/program.h"
#include "mapping/schedule.h"

namespace sherlock::mapping {

struct CodegenOptions {
  /// Fold compatible adjacent instructions (the optimized flow's merging;
  /// disabled for the naive baseline and the A2 ablation).
  bool mergeInstructions = true;

  /// Write every operation result to its cell immediately (paper
  /// Algorithm 1's straightforward per-node instruction generation). The
  /// optimized flow instead keeps results in the row buffer and writes
  /// lazily — a large share of its read/write reduction. Eager mode also
  /// disables row-buffer operand chaining.
  bool eagerWriteback = false;

  /// Keep movement-created operand copies for later consumers in the same
  /// column. Algorithm 1's layout only records each value's home, so the
  /// naive baseline re-fetches an out-of-column operand on every use —
  /// the paper's "significant data duplication and/or movement".
  bool reuseMovedCopies = true;

  /// Fault-aware cell allocation (see mapping/layout.h): every Layout
  /// allocation — preloads, spills, movement targets — avoids faulty
  /// cells and falls back to the spare-row repair region.
  FaultPolicy faults;
};

/// Generates the instruction stream for `g` mapped per `plan` onto
/// `target`: the lazy write-back flow runs chooseSchedule's waves, the
/// eager one b-level waves. Throws MappingError if the program cannot be
/// laid out.
Program generateCode(const ir::Graph& g, const isa::TargetSpec& target,
                     const PlacementPlan& plan,
                     const CodegenOptions& options = {});

/// The same, running `schedule`, which checkSchedule must accept.
Program generateCode(const ir::Graph& g, const isa::TargetSpec& target,
                     const PlacementPlan& plan, const Schedule& schedule,
                     const CodegenOptions& options = {});

}  // namespace sherlock::mapping
