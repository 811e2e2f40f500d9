#include "mapping/layout.h"

#include <algorithm>
#include <functional>

namespace sherlock::mapping {

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
  int row;
  auto& heap = column.released;
  if (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<int>{});
    row = heap.back();
    heap.pop_back();
  } else {
    // A free cell exists and every usable row below the watermark is in
    // use, so a usable row lies at or above it.
    row = column.watermark;
    while (faults_.map &&
           !faults_.map->isUsable(where.arrayId, row, where.col))
      ++row;
    column.watermark = row + 1;
    column.holder.resize(static_cast<size_t>(row) + 1, ir::kInvalidNode);
  }
  // Repair: the main region is exhausted (faults punched holes in it or
  // the program is simply dense); the value lands in the spare region.
  if (row >= mainRowLimit_) ++spareAllocations_;
  ++column.used;
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

bool Layout::isPlaced(ir::NodeId value) const {
  return !placements(value).empty();
}

std::optional<CellAddress> Layout::placementIn(ir::NodeId value,
                                               ColumnRef where) const {
  for (const CellAddress& cell : placements(value))
    if (cell.arrayId == where.arrayId && cell.col == where.col) return cell;
  return std::nullopt;
}

std::optional<CellAddress> Layout::anyPlacement(ir::NodeId value) const {
  const auto& cells = placements(value);
  if (cells.empty()) return std::nullopt;
  return cells.front();
}

const std::vector<CellAddress>& Layout::placements(ir::NodeId value) const {
  static const std::vector<CellAddress> kNone;
  if (value < 0 || static_cast<size_t>(value) >= placements_.size())
    return kNone;
  return placements_[static_cast<size_t>(value)];
}

void Layout::freeCell(const CellAddress& cell) {
  Column& column = columnAt({cell.arrayId, cell.col});
  column.holder[static_cast<size_t>(cell.row)] = ir::kInvalidNode;
  column.released.push_back(cell.row);
  std::push_heap(column.released.begin(), column.released.end(),
                 std::greater<int>{});
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
