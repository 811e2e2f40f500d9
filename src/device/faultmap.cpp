#include "device/faultmap.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "support/diagnostics.h"
#include "support/parallel.h"

namespace sherlock::device {

namespace {

/// The draw k of a cell: the 53 high bits of its splitmix64 value. The
/// cell's fraction is u = k * 2^-53 in [0, 1).
uint64_t cellDraw(uint64_t seed, uint64_t cell) {
  return deriveSeed(seed, cell) >> 11;
}

/// Smallest integer draw with u >= t, for t in [0, 1]: u < t holds
/// exactly when k < drawBelow(t). Scaling by 2^53 is exact in both
/// directions (k * 2^-53 for k < 2^53, and t * 2^53 for t <= 1), so for
/// an integer k, k * 2^-53 < t <=> k < t * 2^53 <=> k < ceil(t * 2^53).
uint64_t drawBelow(double t) {
  return static_cast<uint64_t>(std::ceil(t * 0x1.0p53));
}

/// Word mask of the columns of the last word of a row (bits past the
/// last column stay clear).
uint64_t lastWordMask(int cols) {
  int used = cols % 64;
  return used == 0 ? ~uint64_t{0} : (uint64_t{1} << used) - 1;
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
  colWords_ = (static_cast<size_t>(cols_) + 63) / 64;
  planes_.assign(static_cast<size_t>(numArrays_) * rows_ * kPlanes * colWords_,
                 0);
  rowWrites_.assign(static_cast<size_t>(numArrays_) * rows_, 0);
}

FaultMap FaultMap::generate(int numArrays, int rows, int cols,
                            const FaultMapOptions& options) {
  FaultMap map(numArrays, rows, cols, options);
  const double stuck = options.stuckDensity;
  const double weak = options.weakDensity;
  if (stuck <= 0.0 && weak <= 0.0) return map;
  // Ordered thresholds on the integer draw; one compare against the top
  // one passes over every healthy cell.
  const uint64_t lrsBelow = drawBelow(stuck * 0.5);
  const uint64_t stuckBelow = drawBelow(stuck);
  const uint64_t faultyBelow = drawBelow(stuck + weak);
  const size_t numRows = static_cast<size_t>(numArrays) * rows;
  uint64_t cell = 0;
  for (size_t r = 0; r < numRows; ++r) {
    uint64_t* stuckWords = map.rowPlane(r, kStuck);
    uint64_t* hrsWords = map.rowPlane(r, kStuckHrs);
    uint64_t* weakWords = map.rowPlane(r, kWeak);
    for (int c = 0; c < cols; ++c, ++cell) {
      uint64_t k = cellDraw(options.seed, cell);
      if (k >= faultyBelow) continue;
      const size_t w = static_cast<size_t>(c) >> 6;
      const uint64_t bit = uint64_t{1} << (c & 63);
      if (k >= stuckBelow) {
        weakWords[w] |= bit;
      } else {
        stuckWords[w] |= bit;
        if (k >= lrsBelow) hrsWords[w] |= bit;
      }
    }
  }
  return map;
}

size_t FaultMap::rowIndex(int arrayId, int row) const {
  SHERLOCK_ASSERT(arrayId >= 0 && arrayId < numArrays_ && row >= 0 &&
                      row < rows_,
                  "fault map row (", arrayId, ", ", row, ") out of bounds");
  return static_cast<size_t>(arrayId) * rows_ + row;
}

size_t FaultMap::wordIndex(int arrayId, int row, int col) const {
  SHERLOCK_ASSERT(arrayId >= 0 && arrayId < numArrays_ && row >= 0 &&
                      row < rows_ && col >= 0 && col < cols_,
                  "fault map cell (", arrayId, ", ", row, ", ", col,
                  ") out of bounds");
  return (static_cast<size_t>(arrayId) * rows_ + row) * kPlanes * colWords_ +
         (static_cast<size_t>(col) >> 6);
}

FaultMap::RowWords FaultMap::rowWords(int arrayId, int row) const {
  size_t r = rowIndex(arrayId, row);
  return {rowPlane(r, kStuck), rowPlane(r, kStuckHrs), rowPlane(r, kWeak)};
}

CellFault FaultMap::faultAt(int arrayId, int row, int col) const {
  const uint64_t* word = &planes_[wordIndex(arrayId, row, col)];
  const uint64_t bit = uint64_t{1} << (col & 63);
  if (word[kStuck * colWords_] & bit)
    return word[kStuckHrs * colWords_] & bit ? CellFault::StuckAtHrs
                                             : CellFault::StuckAtLrs;
  return word[kWeak * colWords_] & bit ? CellFault::Weak : CellFault::None;
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
  uint64_t* word = &planes_[wordIndex(arrayId, row, col)];
  const uint64_t bit = uint64_t{1} << (col & 63);
  auto assign = [&](Plane plane, bool set) {
    uint64_t& w = word[plane * colWords_];
    w = set ? w | bit : w & ~bit;
  };
  assign(kStuck, fault == CellFault::StuckAtLrs ||
                     fault == CellFault::StuckAtHrs);
  assign(kStuckHrs, fault == CellFault::StuckAtHrs);
  assign(kWeak, fault == CellFault::Weak);
}

long FaultMap::noteRowWrite(int arrayId, int row) {
  const size_t r = rowIndex(arrayId, row);
  long& count = rowWrites_[r];
  ++count;
  if (options_.rowWriteBudget > 0 && count == options_.rowWriteBudget + 1) {
    // Every cell ends stuck; the HRS plane is untouched, so cells that
    // still functioned read LRS and stuck-at-HRS cells keep their state.
    uint64_t* stuck = rowPlane(r, kStuck);
    std::fill_n(stuck, colWords_, ~uint64_t{0});
    stuck[colWords_ - 1] = lastWordMask(cols_);
    std::fill_n(rowPlane(r, kWeak), colWords_, 0);
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
  std::vector<int> usable(static_cast<size_t>(cols_), rowLimit);
  if (rowLimit == 0) return usable;
  const size_t first = rowIndex(arrayId, 0);
  for (size_t r = first; r < first + static_cast<size_t>(rowLimit); ++r) {
    const uint64_t* stuck = rowPlane(r, kStuck);
    const uint64_t* weak = rowPlane(r, kWeak);
    for (size_t w = 0; w < colWords_; ++w)
      for (uint64_t faulty = stuck[w] | weak[w]; faulty; faulty &= faulty - 1)
        --usable[64 * w + static_cast<size_t>(std::countr_zero(faulty))];
  }
  return usable;
}

long FaultMap::countPlane(Plane plane) const {
  long count = 0;
  const size_t numRows = static_cast<size_t>(numArrays_) * rows_;
  for (size_t r = 0; r < numRows; ++r) {
    const uint64_t* words = rowPlane(r, plane);
    for (size_t w = 0; w < colWords_; ++w) count += std::popcount(words[w]);
  }
  return count;
}

long FaultMap::stuckCellCount() const { return countPlane(kStuck); }

long FaultMap::weakCellCount() const { return countPlane(kWeak); }

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
    for (int r = 0; r < rows_; ++r) {
      RowWords row = rowWords(a, r);
      for (size_t w = 0; w < colWords_; ++w)
        for (uint64_t faulty = row.stuck[w] | row.weak[w]; faulty;
             faulty &= faulty - 1) {
          int c = static_cast<int>(64 * w) + std::countr_zero(faulty);
          out << cellFaultName(faultAt(a, r, c)) << " " << a << " " << r
              << " " << c << "\n";
        }
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
