#include "isa/instruction.h"

#include <span>
#include <sstream>

namespace sherlock::isa {

namespace {

std::string joinInts(std::span<const int> xs) {
  std::string s;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(xs[i]);
  }
  return s;
}

}  // namespace

std::string Instruction::toString() const {
  std::ostringstream os;
  switch (kind) {
    case InstKind::Read: {
      os << "read [" << arrayId << "][" << joinInts(columns) << "]["
         << joinInts(rows) << "]";
      if (!colOps.empty()) {
        os << " [";
        for (size_t i = 0; i < colOps.size(); ++i) {
          if (i) os << ',';
          os << ir::opName(colOps[i]);
          if (i < chainsBuffer.size() && chainsBuffer[i]) os << "+B";
        }
        os << "]";
      }
      break;
    }
    case InstKind::Write:
      os << "write [" << arrayId << "][" << joinInts(columns) << "]["
         << joinInts(rows) << "]";
      break;
    case InstKind::Shift:
      os << "shift [" << arrayId << "] "
         << (shiftDirection == ShiftDirection::Right ? 'R' : 'L') << "["
         << shiftDistance << "]";
      break;
    case InstKind::Xfer:
      os << "xfer [" << arrayId << "][" << joinInts(columns) << "]["
         << joinInts(rows) << "] -> [" << dstArray << "][" << dstCol << "]["
         << dstRow << "]";
      break;
  }
  return os.str();
}

Instruction makePlainRead(int arrayId, ColumnList columns, int row) {
  Instruction i;
  i.kind = InstKind::Read;
  i.arrayId = arrayId;
  i.columns = std::move(columns);
  i.rows = {row};
  return i;
}

Instruction makeCimRead(int arrayId, ColumnList columns, RowList rows,
                        OpList ops, ChainList chains) {
  Instruction i;
  i.kind = InstKind::Read;
  i.arrayId = arrayId;
  i.columns = std::move(columns);
  i.rows = std::move(rows);
  i.colOps = std::move(ops);
  i.chainsBuffer = std::move(chains);
  if (i.chainsBuffer.empty())
    i.chainsBuffer.assign(i.colOps.size(), false);
  return i;
}

Instruction makeWrite(int arrayId, ColumnList columns, int row) {
  Instruction i;
  i.kind = InstKind::Write;
  i.arrayId = arrayId;
  i.columns = std::move(columns);
  i.rows = {row};
  return i;
}

Instruction makeShift(int arrayId, ShiftDirection dir, int distance) {
  Instruction i;
  i.kind = InstKind::Shift;
  i.arrayId = arrayId;
  i.shiftDirection = dir;
  i.shiftDistance = distance;
  return i;
}

Instruction makeXfer(int srcArray, int srcCol, int srcRow, int dstArray,
                     int dstCol, int dstRow) {
  Instruction i;
  i.kind = InstKind::Xfer;
  i.arrayId = srcArray;
  i.columns = {srcCol};
  i.rows = {srcRow};
  i.dstArray = dstArray;
  i.dstCol = dstCol;
  i.dstRow = dstRow;
  return i;
}

std::string toAssembly(const std::vector<Instruction>& program) {
  std::string out;
  for (const auto& inst : program) {
    out += inst.toString();
    out += '\n';
  }
  return out;
}

}  // namespace sherlock::isa
