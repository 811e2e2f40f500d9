#include "device/faultmap.h"

#include <iomanip>
#include <sstream>

#include "support/diagnostics.h"
#include "support/parallel.h"

namespace sherlock::device {

namespace {

/// [0, 1) uniform from one splitmix64 draw: 53 high bits -> double.
double uniformDraw(uint64_t seed, uint64_t cell) {
  return static_cast<double>(deriveSeed(seed, cell) >> 11) * 0x1.0p-53;
}

void checkDims(int numArrays, int rows, int cols) {
  checkArg(numArrays > 0, "fault map needs at least one array");
  checkArg(rows > 0 && cols > 0, "fault map needs positive dimensions");
}

void checkOptions(const FaultMapOptions& o) {
  checkArg(o.stuckDensity >= 0.0 && o.stuckDensity <= 1.0,
           "stuck-cell density must be in [0, 1]");
  checkArg(o.weakDensity >= 0.0 && o.weakDensity <= 1.0,
           "weak-cell density must be in [0, 1]");
  checkArg(o.stuckDensity + o.weakDensity <= 1.0,
           "stuck + weak density must not exceed 1");
  checkArg(o.weakPdfMultiplier >= 1.0,
           "weak-cell P_DF multiplier must be >= 1");
  checkArg(o.rowWriteBudget >= 0, "row write budget must be >= 0");
}

}  // namespace

const char* cellFaultName(CellFault fault) {
  switch (fault) {
    case CellFault::None: return "none";
    case CellFault::StuckAtLrs: return "stuck-lrs";
    case CellFault::StuckAtHrs: return "stuck-hrs";
    case CellFault::Weak: return "weak";
  }
  throw InternalError("unknown CellFault");
}

FaultMap::FaultMap(int numArrays, int rows, int cols, FaultMapOptions options)
    : numArrays_(numArrays), rows_(rows), cols_(cols), options_(options) {
  checkDims(numArrays, rows, cols);
  checkOptions(options);
  faults_.assign(static_cast<size_t>(totalCells()), 0);
  rowWrites_.assign(static_cast<size_t>(numArrays_) * rows_, 0);
}

FaultMap FaultMap::generate(int numArrays, int rows, int cols,
                            const FaultMapOptions& options) {
  FaultMap map(numArrays, rows, cols, options);
  const double stuck = options.stuckDensity;
  const double weak = options.weakDensity;
  if (stuck <= 0.0 && weak <= 0.0) return map;
  const long total = map.totalCells();
  for (long cell = 0; cell < total; ++cell) {
    double u = uniformDraw(options.seed, static_cast<uint64_t>(cell));
    CellFault fault = CellFault::None;
    if (u < stuck * 0.5) fault = CellFault::StuckAtLrs;
    else if (u < stuck) fault = CellFault::StuckAtHrs;
    else if (u < stuck + weak) fault = CellFault::Weak;
    map.faults_[static_cast<size_t>(cell)] = static_cast<uint8_t>(fault);
  }
  return map;
}

size_t FaultMap::cellIndex(int arrayId, int row, int col) const {
  SHERLOCK_ASSERT(arrayId >= 0 && arrayId < numArrays_ && row >= 0 &&
                      row < rows_ && col >= 0 && col < cols_,
                  "fault map cell (", arrayId, ", ", row, ", ", col,
                  ") out of bounds");
  return (static_cast<size_t>(arrayId) * rows_ + row) * cols_ + col;
}

size_t FaultMap::rowIndex(int arrayId, int row) const {
  SHERLOCK_ASSERT(arrayId >= 0 && arrayId < numArrays_ && row >= 0 &&
                      row < rows_,
                  "fault map row (", arrayId, ", ", row, ") out of bounds");
  return static_cast<size_t>(arrayId) * rows_ + row;
}

CellFault FaultMap::faultAt(int arrayId, int row, int col) const {
  return static_cast<CellFault>(faults_[cellIndex(arrayId, row, col)]);
}

bool FaultMap::isStuck(int arrayId, int row, int col) const {
  CellFault f = faultAt(arrayId, row, col);
  return f == CellFault::StuckAtLrs || f == CellFault::StuckAtHrs;
}

bool FaultMap::isWeak(int arrayId, int row, int col) const {
  return faultAt(arrayId, row, col) == CellFault::Weak;
}

bool FaultMap::isUsable(int arrayId, int row, int col) const {
  return faultAt(arrayId, row, col) == CellFault::None;
}

bool FaultMap::stuckBit(int arrayId, int row, int col) const {
  CellFault f = faultAt(arrayId, row, col);
  SHERLOCK_ASSERT(f == CellFault::StuckAtLrs || f == CellFault::StuckAtHrs,
                  "stuckBit on non-stuck cell (", arrayId, ", ", row, ", ",
                  col, ")");
  return f == CellFault::StuckAtHrs;
}

void FaultMap::setFault(int arrayId, int row, int col, CellFault fault) {
  faults_[cellIndex(arrayId, row, col)] = static_cast<uint8_t>(fault);
}

void FaultMap::packRowMasks(int arrayId, int row, uint64_t* stuck,
                            uint64_t* stuckHrs, uint64_t* weak) const {
  const size_t colWords = (static_cast<size_t>(cols_) + 63) / 64;
  for (size_t w = 0; w < colWords; ++w) stuck[w] = stuckHrs[w] = weak[w] = 0;
  const uint8_t* rowFaults = &faults_[cellIndex(arrayId, row, 0)];
  for (int c = 0; c < cols_; ++c) {
    auto f = static_cast<CellFault>(rowFaults[c]);
    if (f == CellFault::None) continue;
    uint64_t bit = uint64_t{1} << (c & 63);
    if (f == CellFault::Weak) {
      weak[c >> 6] |= bit;
    } else {
      stuck[c >> 6] |= bit;
      if (f == CellFault::StuckAtHrs) stuckHrs[c >> 6] |= bit;
    }
  }
}

long FaultMap::noteRowWrite(int arrayId, int row) {
  long& count = rowWrites_[rowIndex(arrayId, row)];
  ++count;
  if (options_.rowWriteBudget > 0 && count == options_.rowWriteBudget + 1) {
    for (int col = 0; col < cols_; ++col) {
      size_t ci = cellIndex(arrayId, row, col);
      CellFault f = static_cast<CellFault>(faults_[ci]);
      if (f == CellFault::None || f == CellFault::Weak)
        faults_[ci] = static_cast<uint8_t>(CellFault::StuckAtLrs);
    }
  }
  return count;
}

long FaultMap::rowWrites(int arrayId, int row) const {
  return rowWrites_[rowIndex(arrayId, row)];
}

bool FaultMap::rowWornOut(int arrayId, int row) const {
  return options_.rowWriteBudget > 0 &&
         rowWrites_[rowIndex(arrayId, row)] > options_.rowWriteBudget;
}

std::vector<int> FaultMap::usableCellsPerColumn(int arrayId,
                                                int rowLimit) const {
  checkArg(rowLimit >= 0 && rowLimit <= rows_,
           "usableCellsPerColumn row limit out of range");
  std::vector<int> usable(static_cast<size_t>(cols_), 0);
  if (rowLimit == 0) return usable;
  constexpr auto kNone = static_cast<uint8_t>(CellFault::None);
  const uint8_t* cells = &faults_[cellIndex(arrayId, 0, 0)];
  for (int row = 0; row < rowLimit; ++row, cells += cols_)
    for (int col = 0; col < cols_; ++col)
      usable[static_cast<size_t>(col)] += cells[col] == kNone;
  return usable;
}

long FaultMap::stuckCellCount() const {
  long count = 0;
  for (uint8_t f : faults_) {
    CellFault fault = static_cast<CellFault>(f);
    if (fault == CellFault::StuckAtLrs || fault == CellFault::StuckAtHrs)
      ++count;
  }
  return count;
}

long FaultMap::weakCellCount() const {
  long count = 0;
  for (uint8_t f : faults_)
    if (static_cast<CellFault>(f) == CellFault::Weak) ++count;
  return count;
}

std::string FaultMap::toText() const {
  std::ostringstream out;
  out << "sherlock-faultmap v1\n"
      << "arrays " << numArrays_ << " rows " << rows_ << " cols " << cols_
      << "\n";
  out << std::setprecision(17)  // lossless double round-trip
      << "seed " << options_.seed << " stuck-density " << options_.stuckDensity
      << " weak-density " << options_.weakDensity << " weak-mult "
      << options_.weakPdfMultiplier << " row-write-budget "
      << options_.rowWriteBudget << "\n";
  out << "# stuck " << stuckCellCount() << " weak " << weakCellCount()
      << " of " << totalCells() << " cells\n";
  for (int a = 0; a < numArrays_; ++a)
    for (int r = 0; r < rows_; ++r)
      for (int c = 0; c < cols_; ++c) {
        CellFault f = faultAt(a, r, c);
        if (f == CellFault::None) continue;
        out << cellFaultName(f) << " " << a << " " << r << " " << c << "\n";
      }
  for (int a = 0; a < numArrays_; ++a)
    for (int r = 0; r < rows_; ++r)
      if (rowWrites_[rowIndex(a, r)] > 0)
        out << "wear " << a << " " << r << " " << rowWrites_[rowIndex(a, r)]
            << "\n";
  out << "end\n";
  return out.str();
}

FaultMap FaultMap::fromText(const std::string& text) {
  std::istringstream in(text);
  auto fail = [](const std::string& why) -> void {
    throw Error(strCat("malformed fault map: ", why));
  };

  std::string line;
  if (!std::getline(in, line) || line != "sherlock-faultmap v1")
    fail("missing 'sherlock-faultmap v1' header");

  auto expect = [&](std::istream& is, const std::string& token) {
    std::string word;
    if (!(is >> word) || word != token)
      fail(strCat("expected '", token, "', got '", word, "'"));
  };

  int numArrays = 0, rows = 0, cols = 0;
  {
    if (!std::getline(in, line)) fail("missing dimensions line");
    std::istringstream ls(line);
    expect(ls, "arrays");
    ls >> numArrays;
    expect(ls, "rows");
    ls >> rows;
    expect(ls, "cols");
    if (!(ls >> cols)) fail("bad dimensions line");
  }

  FaultMapOptions options;
  {
    if (!std::getline(in, line)) fail("missing options line");
    std::istringstream ls(line);
    expect(ls, "seed");
    ls >> options.seed;
    expect(ls, "stuck-density");
    ls >> options.stuckDensity;
    expect(ls, "weak-density");
    ls >> options.weakDensity;
    expect(ls, "weak-mult");
    ls >> options.weakPdfMultiplier;
    expect(ls, "row-write-budget");
    if (!(ls >> options.rowWriteBudget)) fail("bad options line");
  }

  FaultMap map(numArrays, rows, cols, options);
  bool sawEnd = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") {
      sawEnd = true;
      break;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "wear") {
      int a = 0, r = 0;
      long count = 0;
      if (!(ls >> a >> r >> count) || a < 0 || a >= numArrays || r < 0 ||
          r >= rows || count < 0)
        fail(strCat("bad wear line '", line, "'"));
      map.rowWrites_[map.rowIndex(a, r)] = count;
      continue;
    }
    CellFault fault;
    if (kind == cellFaultName(CellFault::StuckAtLrs))
      fault = CellFault::StuckAtLrs;
    else if (kind == cellFaultName(CellFault::StuckAtHrs))
      fault = CellFault::StuckAtHrs;
    else if (kind == cellFaultName(CellFault::Weak))
      fault = CellFault::Weak;
    else {
      fail(strCat("unknown fault kind '", kind, "'"));
      break;  // unreachable; silences -Wmaybe-uninitialized
    }
    int a = 0, r = 0, c = 0;
    if (!(ls >> a >> r >> c) || a < 0 || a >= numArrays || r < 0 ||
        r >= rows || c < 0 || c >= cols)
      fail(strCat("bad fault line '", line, "'"));
    map.setFault(a, r, c, fault);
  }
  if (!sawEnd) fail("missing 'end' terminator");
  return map;
}

}  // namespace sherlock::device
