#include "isa/instruction.h"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.h"

namespace sherlock::isa {

namespace {

std::string joinInts(const std::vector<int>& xs) {
  std::string s;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(xs[i]);
  }
  return s;
}

/// Parses "a,b,c" into integers.
std::vector<int> splitInts(const std::string& text) {
  checkArg(text.empty() || text.back() != ',',
           "trailing comma in list '", text, "'");
  std::vector<int> out;
  std::string cur;
  std::istringstream is(text);
  while (std::getline(is, cur, ',')) {
    checkArg(!cur.empty(), "empty element in list '", text, "'");
    size_t pos = 0;
    int v = std::stoi(cur, &pos);
    checkArg(pos == cur.size(), "trailing junk in number '", cur, "'");
    out.push_back(v);
  }
  return out;
}

/// Extracts the next "[...]" group starting at or after `pos`; advances
/// `pos` past it.
std::string nextBracketGroup(const std::string& line, size_t& pos) {
  size_t open = line.find('[', pos);
  checkArg(open != std::string::npos, "expected '[' in: ", line);
  size_t close = line.find(']', open);
  checkArg(close != std::string::npos, "unterminated '[' in: ", line);
  pos = close + 1;
  return line.substr(open + 1, close - open - 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
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
    case InstKind::Move:
      os << "move [" << arrayId << "][" << joinInts(columns) << "] -> ["
         << dstArray << "][" << dstCol << "]";
      break;
    case InstKind::Xfer:
      os << "xfer [" << arrayId << "][" << joinInts(columns) << "]["
         << joinInts(rows) << "] -> [" << dstArray << "][" << dstCol << "]["
         << dstRow << "]";
      break;
  }
  return os.str();
}

Instruction Instruction::parse(const std::string& line) {
  std::istringstream is(line);
  std::string mnemonic;
  is >> mnemonic;
  mnemonic = lower(mnemonic);

  Instruction inst;
  size_t pos = 0;
  if (mnemonic == "shift") {
    inst.kind = InstKind::Shift;
    std::string arr = nextBracketGroup(line, pos);
    inst.arrayId = std::stoi(arr);
    size_t dirPos = line.find_first_of("LRlr", pos);
    checkArg(dirPos != std::string::npos,
             "missing shift direction in: ", line);
    inst.shiftDirection = (line[dirPos] == 'R' || line[dirPos] == 'r')
                              ? ShiftDirection::Right
                              : ShiftDirection::Left;
    pos = dirPos;
    inst.shiftDistance = std::stoi(nextBracketGroup(line, pos));
    return inst;
  }

  if (mnemonic == "move") {
    inst.kind = InstKind::Move;
    inst.arrayId = std::stoi(nextBracketGroup(line, pos));
    inst.columns = splitInts(nextBracketGroup(line, pos));
    checkArg(inst.columns.size() == 1, "move takes one source column");
    inst.dstArray = std::stoi(nextBracketGroup(line, pos));
    inst.dstCol = std::stoi(nextBracketGroup(line, pos));
    return inst;
  }

  if (mnemonic == "xfer") {
    inst.kind = InstKind::Xfer;
    inst.arrayId = std::stoi(nextBracketGroup(line, pos));
    inst.columns = splitInts(nextBracketGroup(line, pos));
    checkArg(inst.columns.size() == 1, "xfer takes one source column");
    inst.rows = splitInts(nextBracketGroup(line, pos));
    checkArg(inst.rows.size() == 1, "xfer takes one source row");
    inst.dstArray = std::stoi(nextBracketGroup(line, pos));
    inst.dstCol = std::stoi(nextBracketGroup(line, pos));
    inst.dstRow = std::stoi(nextBracketGroup(line, pos));
    return inst;
  }

  checkArg(mnemonic == "read" || mnemonic == "write",
           "unknown mnemonic in: ", line);
  inst.kind = mnemonic == "read" ? InstKind::Read : InstKind::Write;
  inst.arrayId = std::stoi(nextBracketGroup(line, pos));
  inst.columns = splitInts(nextBracketGroup(line, pos));
  inst.rows = splitInts(nextBracketGroup(line, pos));

  // Optional CIM op group.
  size_t open = line.find('[', pos);
  if (inst.kind == InstKind::Read && open != std::string::npos) {
    std::string group = nextBracketGroup(line, pos);
    std::istringstream gs(group);
    std::string tok;
    while (std::getline(gs, tok, ',')) {
      bool chain = false;
      if (tok.size() > 2 && tok.substr(tok.size() - 2) == "+B") {
        chain = true;
        tok.resize(tok.size() - 2);
      }
      inst.colOps.push_back(ir::opFromName(tok));
      inst.chainsBuffer.push_back(chain);
    }
  }
  return inst;
}

Instruction makePlainRead(int arrayId, std::vector<int> columns, int row) {
  Instruction i;
  i.kind = InstKind::Read;
  i.arrayId = arrayId;
  i.columns = std::move(columns);
  i.rows = {row};
  return i;
}

Instruction makeCimRead(int arrayId, std::vector<int> columns,
                        std::vector<int> rows, std::vector<ir::OpKind> ops,
                        std::vector<bool> chains) {
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

Instruction makeWrite(int arrayId, std::vector<int> columns, int row) {
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

Instruction makeMove(int srcArray, int srcCol, int dstArray, int dstCol) {
  Instruction i;
  i.kind = InstKind::Move;
  i.arrayId = srcArray;
  i.columns = {srcCol};
  i.dstArray = dstArray;
  i.dstCol = dstCol;
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

std::vector<Instruction> parseAssembly(const std::string& text) {
  std::vector<Instruction> program;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    program.push_back(Instruction::parse(line));
  }
  return program;
}

void validateInstruction(const Instruction& inst, int numArrays, int rows,
                         int cols) {
  checkArg(inst.arrayId >= 0 && inst.arrayId < numArrays,
           "array id ", inst.arrayId, " out of range");
  if (inst.kind == InstKind::Shift) {
    checkArg(inst.shiftDistance >= 0, "negative shift distance");
    return;
  }
  if (inst.kind == InstKind::Move) {
    checkArg(inst.columns.size() == 1, "move takes one source column");
    checkArg(inst.columns[0] >= 0 && inst.columns[0] < cols,
             "move source column out of range");
    checkArg(inst.dstArray >= 0 && inst.dstArray < numArrays,
             "move destination array out of range");
    checkArg(inst.dstCol >= 0 && inst.dstCol < cols,
             "move destination column out of range");
    return;
  }
  if (inst.kind == InstKind::Xfer) {
    checkArg(inst.columns.size() == 1, "xfer takes one source column");
    checkArg(inst.rows.size() == 1, "xfer takes one source row");
    checkArg(inst.columns[0] >= 0 && inst.columns[0] < cols,
             "xfer source column out of range");
    checkArg(inst.rows[0] >= 0 && inst.rows[0] < rows,
             "xfer source row out of range");
    checkArg(inst.dstArray >= 0 && inst.dstArray < numArrays,
             "xfer destination array out of range");
    checkArg(inst.dstCol >= 0 && inst.dstCol < cols,
             "xfer destination column out of range");
    checkArg(inst.dstRow >= 0 && inst.dstRow < rows,
             "xfer destination row out of range");
    return;
  }
  checkArg(!inst.columns.empty(), "read/write needs columns");
  if (inst.rows.empty()) {
    // A read with no activated rows is a pure row-buffer operation; it is
    // only meaningful when every column chains its latched bit.
    checkArg(inst.kind == InstKind::Read && !inst.colOps.empty(),
             "only CIM reads may omit rows");
    for (bool chain : inst.chainsBuffer)
      checkArg(chain, "rowless read requires all columns to chain");
  }
  for (int c : inst.columns)
    checkArg(c >= 0 && c < cols, "column ", c, " out of range");
  for (int r : inst.rows)
    checkArg(r >= 0 && r < rows, "row ", r, " out of range");
  checkArg(std::is_sorted(inst.columns.begin(), inst.columns.end()) &&
               std::adjacent_find(inst.columns.begin(), inst.columns.end()) ==
                   inst.columns.end(),
           "columns must be ascending and unique");
  checkArg(std::is_sorted(inst.rows.begin(), inst.rows.end()) &&
               std::adjacent_find(inst.rows.begin(), inst.rows.end()) ==
                   inst.rows.end(),
           "rows must be ascending and unique");
  if (inst.kind == InstKind::Write)
    checkArg(inst.rows.size() == 1, "write takes exactly one row");
  if (!inst.colOps.empty()) {
    checkArg(inst.kind == InstKind::Read, "ops only valid on reads");
    checkArg(inst.colOps.size() == inst.columns.size(),
             "one op per column required");
    checkArg(inst.chainsBuffer.size() == inst.colOps.size(),
             "chain flags must parallel ops");
  }
}

}  // namespace sherlock::isa
