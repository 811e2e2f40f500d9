// The CIM instruction set generated by the Sherlock mappers and consumed by
// the simulator, matching the paper's Fig. 4 format:
//
//   op address[arrayID][columns][rows] [cim-op]
//   write [0][4,8,12,16][932]
//   read  [0][1,5,9,13][5]
//   shift [0] R[3]
//   read  [0][4,8,12,16][933,934] [XOR,AND,OR,XOR]
//
// Semantics:
//  * read with one row and no ops: loads the addressed cells of that row
//    into the row buffer at their column positions (plain read).
//  * read with ops: scouting-logic CIM read. All listed rows are activated
//    simultaneously; each listed column senses its own operation over the
//    activated cells and latches the result bit into the row buffer. An
//    op suffixed with "+B" additionally chains the column's current row
//    buffer bit as an operand (row-buffer operand chaining).
//  * write: stores the row-buffer bits at the listed columns into the
//    addressed row's cells.
//  * shift: rotates the entire row buffer left (L) or right (R); column c
//    moves to c+d for L, c-d for R (modulo the array width).
//  * xfer (extension beyond the paper's three ops, needed once a layout
//    spans several arrays): cell-to-cell inter-array transfer — the
//    transfer engine senses one source cell, carries the bit across the
//    inter-array bus and programs it into one destination cell, without
//    disturbing either array's row buffer:
//    "xfer [srcArray][srcCol][srcRow] -> [dstArray][dstCol][dstRow]".
//    The destination write is posted like a regular write.
#pragma once

#include <string>
#include <vector>

#include "ir/ops.h"
#include "support/inline_vector.h"

namespace sherlock::isa {

enum class InstKind { Read, Write, Shift, Xfer };

enum class ShiftDirection { Left, Right };

// Field storage sized to the programs the mappers emit: in the paper
// kernels' programs every naive read and write, and 72-90% of the
// optimized flow's, address at most two columns, and no CIM read
// activates more than four rows, so the fields sit inside the
// instruction. Merged instructions with more columns move those fields
// to the heap; a wider inline capacity would grow every instruction
// (136 B) to serve the few wide ones.
using ColumnList = InlineVector<int, 2>;
using RowList = InlineVector<int, 4>;
using OpList = InlineVector<ir::OpKind, 2>;
using ChainList = InlineVector<bool, 2>;

struct Instruction {
  InstKind kind = InstKind::Read;
  int arrayId = 0;

  /// Read/Write: target columns, ascending and unique.
  ColumnList columns;

  /// Read: simultaneously activated rows (ascending, unique; size 1 for a
  /// plain read). Write: exactly one destination row.
  RowList rows;

  /// Read with CIM ops: one op per column (parallel to `columns`). Empty
  /// for plain reads and writes.
  OpList colOps;

  /// Parallel to `colOps` when non-empty: true if the column's row-buffer
  /// bit chains in as an extra operand.
  ChainList chainsBuffer;

  /// Shift only.
  ShiftDirection shiftDirection = ShiftDirection::Right;
  int shiftDistance = 0;

  /// Xfer destination cell; arrayId/columns[0]/rows[0] is the source
  /// cell.
  int dstArray = 0;
  int dstCol = 0;
  int dstRow = 0;

  bool isCimRead() const { return kind == InstKind::Read && !colOps.empty(); }
  bool isPlainRead() const { return kind == InstKind::Read && colOps.empty(); }

  /// Renders in the paper's assembly format.
  std::string toString() const;

  bool operator==(const Instruction& other) const = default;
};

/// Convenience constructors.
Instruction makePlainRead(int arrayId, ColumnList columns, int row);
Instruction makeCimRead(int arrayId, ColumnList columns, RowList rows,
                        OpList ops, ChainList chains = {});
Instruction makeWrite(int arrayId, ColumnList columns, int row);
Instruction makeShift(int arrayId, ShiftDirection dir, int distance);
Instruction makeXfer(int srcArray, int srcCol, int srcRow, int dstArray,
                     int dstCol, int dstRow);

/// Renders a whole program, one instruction per line.
std::string toAssembly(const std::vector<Instruction>& program);

}  // namespace sherlock::isa
