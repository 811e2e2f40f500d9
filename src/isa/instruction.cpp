#include "isa/instruction.h"

#include <algorithm>
#include <charconv>
#include <span>
#include <sstream>
#include <string_view>

#include "support/diagnostics.h"

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

/// Parses one decimal integer field: `text`, bar surrounding blanks, must
/// be a whole number that fits an int. Throws Error naming `field`.
int parseNumber(std::string_view text, const char* field) {
  auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!text.empty() && blank(text.front())) text.remove_prefix(1);
  while (!text.empty() && blank(text.back())) text.remove_suffix(1);
  int value = 0;
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, value);
  checkArg(ec != std::errc::result_out_of_range, field, " '", text,
           "' is out of range");
  checkArg(!text.empty() && ec == std::errc() && stop == end, field, " '",
           text, "' is not an integer");
  return value;
}

/// Parses "a,b,c" into `out`, each element a `field`.
template <typename List>
void parseList(const std::string& text, const char* field, List& out) {
  checkArg(text.empty() || text.back() != ',',
           "trailing comma in list '", text, "'");
  out.clear();
  std::string_view rest = text;
  while (!rest.empty()) {
    size_t comma = std::min(rest.find(','), rest.size());
    std::string_view element = rest.substr(0, comma);
    checkArg(!element.empty(), "empty element in list '", text, "'");
    out.push_back(parseNumber(element, field));
    rest.remove_prefix(std::min(comma + 1, rest.size()));
  }
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
    inst.arrayId = parseNumber(nextBracketGroup(line, pos), "array id");
    size_t dirPos = line.find_first_of("LRlr", pos);
    checkArg(dirPos != std::string::npos,
             "missing shift direction in: ", line);
    inst.shiftDirection = (line[dirPos] == 'R' || line[dirPos] == 'r')
                              ? ShiftDirection::Right
                              : ShiftDirection::Left;
    pos = dirPos;
    inst.shiftDistance =
        parseNumber(nextBracketGroup(line, pos), "shift distance");
    return inst;
  }

  if (mnemonic == "xfer") {
    inst.kind = InstKind::Xfer;
    inst.arrayId = parseNumber(nextBracketGroup(line, pos), "array id");
    parseList(nextBracketGroup(line, pos), "column", inst.columns);
    checkArg(inst.columns.size() == 1, "xfer takes one source column");
    parseList(nextBracketGroup(line, pos), "row", inst.rows);
    checkArg(inst.rows.size() == 1, "xfer takes one source row");
    inst.dstArray =
        parseNumber(nextBracketGroup(line, pos), "xfer destination array");
    inst.dstCol =
        parseNumber(nextBracketGroup(line, pos), "xfer destination column");
    inst.dstRow =
        parseNumber(nextBracketGroup(line, pos), "xfer destination row");
    return inst;
  }

  checkArg(mnemonic == "read" || mnemonic == "write",
           "unknown mnemonic in: ", line);
  inst.kind = mnemonic == "read" ? InstKind::Read : InstKind::Write;
  inst.arrayId = parseNumber(nextBracketGroup(line, pos), "array id");
  parseList(nextBracketGroup(line, pos), "column", inst.columns);
  parseList(nextBracketGroup(line, pos), "row", inst.rows);

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

}  // namespace sherlock::isa
