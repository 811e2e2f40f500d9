// Persistent cell-fault model for NVM arrays.
//
// The reliability model (reliability.h) covers *transient* scouting-logic
// decision failures; real ReRAM/STT-MRAM arrays additionally suffer
// *persistent* defects that no retry can fix at the faulty cell:
//
//  * stuck-at cells — a forming failure or a broken access device pins the
//    cell in LRS (reads as logic '0') or HRS (reads as logic '1'); writes
//    have no effect,
//  * weak cells — marginal filaments / low-TMR junctions whose resistance
//    distributions are degraded: reads still work, but every scouting
//    operation sensing the cell sees its decision-failure probability
//    inflated by a per-map multiplier,
//  * endurance wear-out — SET/RESET cycling budgets are finite; a per-row
//    write counter converts the row's cells to stuck faults once the
//    budget is exhausted.
//
// A FaultMap is generated deterministically from (seed, densities): every
// cell's fate is a pure function of the seed and its global index, so the
// same options always produce byte-identical maps regardless of who
// generates them (compiler, simulator, bench worker). Maps serialize to a
// line-oriented text format for tooling (sherlockc --emit faultmap) and
// round-trip losslessly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sherlock::device {

enum class CellFault : uint8_t {
  None = 0,
  StuckAtLrs,  ///< pinned low-resistance: reads as logic '0'
  StuckAtHrs,  ///< pinned high-resistance: reads as logic '1'
  Weak,        ///< functional but with inflated decision-failure rate
};

/// Stable name used by the text serialization ("stuck-lrs", ...).
const char* cellFaultName(CellFault fault);

struct FaultMapOptions {
  uint64_t seed = 1;
  /// Fraction of cells stuck at a fixed state (split evenly LRS/HRS).
  double stuckDensity = 0.0;
  /// Fraction of cells that are weak (elevated per-op P_DF).
  double weakDensity = 0.0;
  /// P_DF multiplier applied per weak cell sensed by a scouting read.
  double weakPdfMultiplier = 8.0;
  /// Writes a row survives before wearing out; 0 = unlimited endurance.
  long rowWriteBudget = 0;

  bool operator==(const FaultMapOptions&) const = default;
};

class FaultMap {
 public:
  /// Fault-free map of the given dimensions (faults can be hand-placed
  /// with setFault; options record provenance for serialization).
  FaultMap(int numArrays, int rows, int cols, FaultMapOptions options = {});

  /// Deterministic generation: cell (a, r, c) draws its fate from
  /// splitmix64(seed, globalCellIndex), so equal (dimensions, options)
  /// yield byte-identical maps in any generation order.
  static FaultMap generate(int numArrays, int rows, int cols,
                           const FaultMapOptions& options);

  int numArrays() const { return numArrays_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  const FaultMapOptions& options() const { return options_; }

  CellFault faultAt(int arrayId, int row, int col) const;
  bool isStuck(int arrayId, int row, int col) const;
  bool isWeak(int arrayId, int row, int col) const;
  bool isUsable(int arrayId, int row, int col) const;
  /// Forced logical bit of a stuck cell: LRS reads as '0', HRS as '1'
  /// (the paper's state/logic convention). Requires isStuck.
  bool stuckBit(int arrayId, int row, int col) const;

  /// Hand-places a fault (tests, wear modeling, field calibration data).
  void setFault(int arrayId, int row, int col, CellFault fault);

  /// Fills packed column masks for one row, `ceil(cols / 64)` words each:
  /// bit c of `stuck` / `weak` is set when cell (arrayId, row, c) carries
  /// that fault; bit c of `stuckHrs` is set when the cell is stuck-at-HRS
  /// (reads as logic '1'). The simulator precomputes these per touched
  /// row so its read loop tests a bit instead of re-deriving a cell index
  /// and switching on the fault byte for every (row, column, lane-word).
  void packRowMasks(int arrayId, int row, uint64_t* stuck,
                    uint64_t* stuckHrs, uint64_t* weak) const;

  // --- Endurance -------------------------------------------------------
  /// Records one programming pulse on a row and returns the new count.
  /// With a positive rowWriteBudget, the write that exceeds the budget
  /// converts every still-functional cell of the row to StuckAtLrs
  /// (wear-out in filamentary cells typically ends SET-stuck).
  long noteRowWrite(int arrayId, int row);
  long rowWrites(int arrayId, int row) const;
  bool rowWornOut(int arrayId, int row) const;

  // --- Aggregates ------------------------------------------------------
  /// Cells that placement can use in each column of one array (element
  /// c is column c): rows below `rowLimit` whose cell carries no fault.
  /// Counted in one row-major pass, like packRowMasks.
  std::vector<int> usableCellsPerColumn(int arrayId, int rowLimit) const;
  long stuckCellCount() const;
  long weakCellCount() const;
  long totalCells() const {
    return static_cast<long>(numArrays_) * rows_ * cols_;
  }

  // --- Serialization ---------------------------------------------------
  /// Line-oriented text form: a header with dimensions and generation
  /// options, one line per fault, one line per worn row counter.
  std::string toText() const;
  /// Inverse of toText; throws Error on malformed input.
  static FaultMap fromText(const std::string& text);

  bool operator==(const FaultMap&) const = default;

 private:
  size_t cellIndex(int arrayId, int row, int col) const;
  size_t rowIndex(int arrayId, int row) const;

  int numArrays_ = 0;
  int rows_ = 0;
  int cols_ = 0;
  FaultMapOptions options_;
  std::vector<uint8_t> faults_;
  std::vector<long> rowWrites_;
};

}  // namespace sherlock::device
