#include "mapping/layout.h"

#include <algorithm>
#include <bit>

namespace sherlock::mapping {

namespace {

bool testBit(const std::vector<uint64_t>& bits, int i) {
  return (bits[static_cast<size_t>(i) / 64] >> (i % 64)) & 1;
}
void setBit(std::vector<uint64_t>& bits, int i) {
  bits[static_cast<size_t>(i) / 64] |= uint64_t{1} << (i % 64);
}
void clearBit(std::vector<uint64_t>& bits, int i) {
  bits[static_cast<size_t>(i) / 64] &= ~(uint64_t{1} << (i % 64));
}

/// Mask of the bits of word `w` that lie below bit `limit`.
uint64_t wordMaskBelow(int w, int limit) {
  int inWord = limit - 64 * w;
  return inWord >= 64 ? ~uint64_t{0} : (uint64_t{1} << inWord) - 1;
}

/// Lowest set bit of `bits` below `limit`, or -1.
int lowestSetBit(const std::vector<uint64_t>& bits, int limit) {
  for (int w = 0; 64 * w < limit; ++w)
    if (uint64_t word = bits[static_cast<size_t>(w)] & wordMaskBelow(w, limit))
      return 64 * w + std::countr_zero(word);
  return -1;
}

}  // namespace

std::vector<int> usablePlanningCells(const isa::TargetSpec& target,
                                     const FaultPolicy& faults, int arrayId) {
  int mainLimit = target.rows() - std::min(faults.spareRows, target.rows());
  if (!faults.map)
    return std::vector<int>(static_cast<size_t>(target.cols()), mainLimit);
  return faults.map->usableCellsPerColumn(arrayId, mainLimit);
}

Layout::Layout(const isa::TargetSpec& target, const FaultPolicy& faults)
    : rows_(target.rows()),
      cols_(target.cols()),
      numArrays_(target.numArrays),
      faults_(faults) {
  checkArg(rows_ > 0 && cols_ > 0 && numArrays_ > 0,
           "target must have positive dimensions");
  checkArg(faults.spareRows >= 0, "spare row count must be >= 0");
  if (faults.map) {
    checkArg(faults.map->numArrays() == numArrays_ &&
                 faults.map->rows() == rows_ && faults.map->cols() == cols_,
             "fault map dimensions (", faults.map->numArrays(), "x",
             faults.map->rows(), "x", faults.map->cols(),
             ") do not match the target (", numArrays_, "x", rows_,
             "x", cols_, ")");
    usableByArray_.resize(static_cast<size_t>(numArrays_));
  }
  spareRows_ = std::min(faults.spareRows, rows_);
  mainRowLimit_ = rows_ - spareRows_;
  columns_.resize(static_cast<size_t>(cols_) * numArrays_);
}

int Layout::columnIndex(ColumnRef where) const {
  checkArg(where.arrayId >= 0 && where.arrayId < numArrays_,
           "array ", where.arrayId, " out of range");
  checkArg(where.col >= 0 && where.col < cols_,
           "column ", where.col, " out of range");
  return where.arrayId * cols_ + where.col;
}

int Layout::usableCells(int arrayId, int col) const {
  if (!faults_.map) return rows_;
  auto& usable = usableByArray_[static_cast<size_t>(arrayId)];
  if (usable.empty())
    usable = faults_.map->usableCellsPerColumn(arrayId, rows_);
  return usable[static_cast<size_t>(col)];
}

CellAddress Layout::allocate(ir::NodeId value, ColumnRef where) {
  checkArg(value >= 0, "value ", value, " is not a node id");
  Column& column = columnAt(where);
  if (column.used == usableCells(where.arrayId, where.col)) {
    std::string detail;
    if (faults_.active())
      detail = strCat("; ", rows_ - usableCells(where.arrayId, where.col),
                      " of ", rows_, " rows unusable due to faults, ",
                      spareRows_, " spare rows all in use");
    throw MappingError(strCat("column ", where.col, " of array ",
                              where.arrayId, " is full (value ", value, ")",
                              detail));
  }
  if (column.free.empty()) buildColumn(column, where);
  // A free cell exists, so a bit is set.
  return place(value, where, column, lowestSetBit(column.free, rows_));
}

CellAddress Layout::allocateAt(ir::NodeId value, ColumnRef where, int row) {
  checkArg(value >= 0, "value ", value, " is not a node id");
  Column& column = columnAt(where);
  checkArg(row >= 0 && row < rows_, "row ", row, " out of range");
  if (column.free.empty()) buildColumn(column, where);
  checkArg(testBit(column.free, row), "row ", row, " of column ", where.col,
           " of array ", where.arrayId, " is not free");
  return place(value, where, column, row);
}

void Layout::buildColumn(Column& column, ColumnRef where) const {
  column.free.assign(static_cast<size_t>(rows_ + 63) / 64, ~uint64_t{0});
  column.free.back() = wordMaskBelow(static_cast<int>(column.free.size()) - 1,
                                     rows_);
  if (faults_.map)
    for (int row = 0; row < rows_; ++row)
      if (!faults_.map->rowWords(where.arrayId, row).isUsable(where.col))
        clearBit(column.free, row);
}

CellAddress Layout::place(ir::NodeId value, ColumnRef where, Column& column,
                          int row) {
  clearBit(column.free, row);
  // Repair: the main region is exhausted (faults punched holes in it or
  // the program is simply dense); the value lands in the spare region.
  if (row >= mainRowLimit_) ++spareAllocations_;
  ++column.used;
  if (static_cast<size_t>(row) >= column.holder.size())
    column.holder.resize(static_cast<size_t>(row) + 1, ir::kInvalidNode);
  column.holder[static_cast<size_t>(row)] = value;
  if (static_cast<size_t>(value) >= placements_.size())
    placements_.resize(static_cast<size_t>(value) + 1);
  CellAddress cell{where.arrayId, where.col, row};
  placements_[static_cast<size_t>(value)].push_back(cell);
  ++liveCells_;
  peakLiveCells_ = std::max(peakLiveCells_, liveCells_);
  return cell;
}

int Layout::freeCells(ColumnRef where) const {
  // columnAt checks the bounds that usableCells relies on.
  const Column& column = columnAt(where);
  return usableCells(where.arrayId, where.col) - column.used;
}

bool Layout::hasFreeMainRow(ColumnRef where) const {
  const Column& column = columnAt(where);
  if (!column.free.empty())
    return lowestSetBit(column.free, mainRowLimit_) >= 0;
  // Never allocated: every usable row is free.
  for (int row = 0; row < mainRowLimit_; ++row)
    if (!faults_.map ||
        faults_.map->rowWords(where.arrayId, row).isUsable(where.col))
      return true;
  return false;
}

std::optional<int> Layout::commonFreeRow(std::span<const ColumnRef> columns) {
  if (columns.empty()) return std::nullopt;
  for (ColumnRef where : columns) {
    Column& column = columnAt(where);
    if (column.free.empty()) buildColumn(column, where);
  }
  for (int w = 0; 64 * w < mainRowLimit_; ++w) {
    uint64_t common = wordMaskBelow(w, mainRowLimit_);
    for (ColumnRef where : columns)
      common &= columnAt(where).free[static_cast<size_t>(w)];
    if (common) return 64 * w + std::countr_zero(common);
  }
  return std::nullopt;
}

std::optional<CellAddress> Layout::anyPlacement(ir::NodeId value) const {
  const auto& cells = placements(value);
  if (cells.empty()) return std::nullopt;
  return cells.front();
}

void Layout::freeCell(const CellAddress& cell) {
  Column& column = columnAt({cell.arrayId, cell.col});
  column.holder[static_cast<size_t>(cell.row)] = ir::kInvalidNode;
  setBit(column.free, cell.row);
  --column.used;
  --liveCells_;
}

void Layout::release(ir::NodeId value) {
  if (!isPlaced(value)) return;
  auto& cells = placements_[static_cast<size_t>(value)];
  for (const CellAddress& cell : cells) freeCell(cell);
  cells.clear();
}

void Layout::releaseCellIn(ir::NodeId value, ColumnRef where) {
  checkArg(isPlaced(value), "value ", value, " has no placements");
  auto& cells = placements_[static_cast<size_t>(value)];
  auto pos = std::find_if(cells.begin(), cells.end(),
                          [&](const CellAddress& c) {
                            return c.arrayId == where.arrayId &&
                                   c.col == where.col;
                          });
  checkArg(pos != cells.end(), "value ", value,
           " not placed in the given column");
  freeCell(*pos);
  cells.erase(pos);
}

std::vector<ir::NodeId> Layout::valuesIn(ColumnRef where) const {
  std::vector<ir::NodeId> values;
  for (ir::NodeId v : columnAt(where).holder)
    if (v != ir::kInvalidNode) values.push_back(v);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

int Layout::placementCount(ir::NodeId value) const {
  return static_cast<int>(placements(value).size());
}

}  // namespace sherlock::mapping
