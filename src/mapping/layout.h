// Memory layout: the assignment of DAG values (operands and intermediate
// results) to cells of the CIM arrays. Tracks per-column occupancy,
// supports value replication (the same value materialized in several
// columns) and liveness-based cell recycling (a dead value's cells return
// to the free pool so long programs fit small arrays).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "device/faultmap.h"
#include "ir/graph.h"
#include "isa/target.h"
#include "support/inline_vector.h"

namespace sherlock::mapping {

/// Fault-aware placement policy. With a fault map, placement never hands
/// out stuck or weak cells (weak cells would silently inflate P_app, so
/// they are treated as unusable at placement time too). `spareRows`
/// reserves the top rows of every column as a repair region: normal
/// allocation fills the main region only, and a column whose main region
/// is exhausted — typically because faults punched holes in it — repairs
/// the collision by remapping the value into a spare row of the same
/// column. Repairs are counted so tooling can report spare utilization.
struct FaultPolicy {
  const device::FaultMap* map = nullptr;
  int spareRows = 0;

  bool active() const { return map != nullptr || spareRows > 0; }
};

/// Physical location of one value bit-slice.
struct CellAddress {
  int arrayId = 0;
  int col = 0;
  int row = 0;

  bool operator==(const CellAddress&) const = default;
  auto operator<=>(const CellAddress&) const = default;
};

/// The cells one value holds, in allocation order. Two (a home cell and
/// one replica) sit inline; more move the list to the heap.
using PlacementList = InlineVector<CellAddress, 2>;

/// Column coordinate (array + column) without a row.
struct ColumnRef {
  int arrayId = 0;
  int col = 0;

  bool operator==(const ColumnRef&) const = default;
  auto operator<=>(const ColumnRef&) const = default;
};

/// Cells that planning may count on in each column of array `arrayId`
/// (element c is column c): usable (non-faulty) cells below the
/// spare-row boundary. Used by the mappers to size per-column packing
/// budgets consistently with Layout's free counts.
std::vector<int> usablePlanningCells(const isa::TargetSpec& target,
                                     const FaultPolicy& faults, int arrayId);

/// Set-up costs O(columns); a column's free-row bitmap is built on its
/// first allocation, so a small kernel on a large target pays for the
/// columns it uses, not the array.
class Layout {
 public:
  explicit Layout(const isa::TargetSpec& target,
                  const FaultPolicy& faults = {});

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int numArrays() const { return numArrays_; }

  /// Allocates a free cell in the given column for `value` and records
  /// the placement. The main region is preferred; when faults exhausted
  /// it the allocation is repaired into a spare row. Throws MappingError
  /// when both regions are full.
  CellAddress allocate(ir::NodeId value, ColumnRef where);

  /// Repair allocations served from the spare-row region so far.
  long spareAllocations() const { return spareAllocations_; }

  /// Spare rows reserved per column (clamped to the array height).
  int spareRows() const { return spareRows_; }

  /// First spare-region row: rows [0, mainRowLimit()) form the main
  /// region, [mainRowLimit(), rows()) the repair region. The code
  /// generator consults this before emitting an XFER — the transfer
  /// engine may not program spare-reserved cells (verifier
  /// TransferLegality), so a repaired destination is reached through a
  /// main-region cell of another column (see hasFreeMainRow).
  int mainRowLimit() const { return mainRowLimit_; }

  /// True if the next allocation in the column lands in the main region.
  bool hasFreeMainRow(ColumnRef where) const;

  /// The lowest main-region row that is free and usable in every one of
  /// `columns`, or nullopt. Never a fault hole, never a spare row.
  std::optional<int> commonFreeRow(std::span<const ColumnRef> columns);

  /// Places `value` in `row` of the given column, which must be free and
  /// usable (as commonFreeRow reports); throws Error otherwise.
  CellAddress allocateAt(ir::NodeId value, ColumnRef where, int row);

  /// Free cells remaining in a column.
  int freeCells(ColumnRef where) const;

  /// True if `value` is materialized anywhere.
  bool isPlaced(ir::NodeId value) const;

  /// Placement of `value` in a specific column, if any.
  std::optional<CellAddress> placementIn(ir::NodeId value,
                                         ColumnRef where) const;

  /// Any placement of `value` (the first recorded one), if any.
  std::optional<CellAddress> anyPlacement(ir::NodeId value) const;

  /// All placements of `value`, in allocation order. The reference is
  /// valid until the next allocation or release.
  const PlacementList& placements(ir::NodeId value) const;

  /// Releases every cell held by `value` (the value died).
  void release(ir::NodeId value);

  /// Releases only the replica of `value` in the given column (the value
  /// must be placed there). Used by the code generator to evict redundant
  /// copies from a full column.
  void releaseCellIn(ir::NodeId value, ColumnRef where);

  /// Values currently holding at least one cell in the given column, in
  /// ascending order (computed on demand; the code generator asks only
  /// when a column is full).
  std::vector<ir::NodeId> valuesIn(ColumnRef where) const;

  /// Number of cells `value` currently holds.
  int placementCount(ir::NodeId value) const;

  /// Total cells currently in use.
  int liveCells() const { return liveCells_; }

  /// Highest count of simultaneously live cells seen so far.
  int peakLiveCells() const { return peakLiveCells_; }

 private:
  int columnIndex(ColumnRef where) const;
  /// Usable cells of a column over all rows (spare region included).
  int usableCells(int arrayId, int col) const;
  void freeCell(const CellAddress& cell);

  int rows_;
  int cols_;
  int numArrays_;
  FaultPolicy faults_;
  int spareRows_ = 0;      // clamped copy of faults_.spareRows
  int mainRowLimit_ = 0;   // rows [0, mainRowLimit_) form the main region
  long spareAllocations_ = 0;

  /// Allocation state of one column, built on its first allocation: bit
  /// r of `free` is set while row r is free and usable (no stuck or weak
  /// cell), spare rows included. The lowest set bit is therefore the
  /// row the next allocation takes — main rows before spare rows, fault
  /// holes never.
  struct Column {
    int used = 0;                    ///< cells in use
    std::vector<uint64_t> free;      ///< rows/64 words; empty until built
    std::vector<ir::NodeId> holder;  ///< row -> value, kInvalidNode if free
  };

  Column& columnAt(ColumnRef where) {
    return columns_[static_cast<size_t>(columnIndex(where))];
  }
  const Column& columnAt(ColumnRef where) const {
    return columns_[static_cast<size_t>(columnIndex(where))];
  }

  /// Fills a column's free-row bitmap from the fault map.
  void buildColumn(Column& column, ColumnRef where) const;
  /// Records `value` in free row `row` of the column.
  CellAddress place(ir::NodeId value, ColumnRef where, Column& column,
                    int row);

  // Indexed by arrayId * cols + col.
  std::vector<Column> columns_;
  // Per array: usable cells per column over all rows, counted on the
  // array's first use (fault maps only).
  mutable std::vector<std::vector<int>> usableByArray_;
  // NodeId -> its placements.
  std::vector<PlacementList> placements_;
  int liveCells_ = 0;
  int peakLiveCells_ = 0;
};

// The code generator asks these on every operand of every op; defined
// here so that they inline.
inline const PlacementList& Layout::placements(ir::NodeId value) const {
  static const PlacementList kNone;
  if (value < 0 || static_cast<size_t>(value) >= placements_.size())
    return kNone;
  return placements_[static_cast<size_t>(value)];
}

inline bool Layout::isPlaced(ir::NodeId value) const {
  return !placements(value).empty();
}

inline std::optional<CellAddress> Layout::placementIn(ir::NodeId value,
                                                      ColumnRef where) const {
  for (const CellAddress& cell : placements(value))
    if (cell.arrayId == where.arrayId && cell.col == where.col) return cell;
  return std::nullopt;
}

}  // namespace sherlock::mapping
