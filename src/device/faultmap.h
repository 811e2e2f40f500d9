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
// generates them (compiler, simulator, bench worker). Maps print to a
// line-oriented text format for tooling (sherlockc --emit faultmap);
// nothing parses it back.
//
// Storage is three bit planes per row, 64 columns per word: stuck (either
// polarity), stuck-at-HRS (a subset of stuck) and weak (disjoint from
// stuck). A fault-free cell has no bit set, so the ~98% of cells a
// realistic map leaves healthy cost nothing beyond zeroed words; the
// counts walk set bits and the simulator tests bits of a row's words.
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
  /// yield byte-identical maps in any generation order. The 53 high bits
  /// of the draw, as a fraction u in [0, 1), pick stuck-at-LRS below
  /// stuck / 2, stuck-at-HRS below stuck and weak below stuck + weak.
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

  /// Hand-places a fault, or clears one with CellFault::None (tests,
  /// wear modeling, field calibration data).
  void setFault(int arrayId, int row, int col, CellFault fault);

  /// One row's fault planes, `ceil(cols / 64)` words each: bit c of
  /// `stuck` is set when cell c is stuck at either state, of `stuckHrs`
  /// when it is stuck-at-HRS (reads as logic '1'), and of `weak` when it
  /// is weak. Bits past the last column are clear. The words are the
  /// map's own, so a view sees later setFault and wear-out changes; it
  /// stays valid while the map lives. Columns are not checked.
  struct RowWords {
    const uint64_t* stuck = nullptr;
    const uint64_t* stuckHrs = nullptr;
    const uint64_t* weak = nullptr;

    bool isStuck(int col) const { return test(stuck, col); }
    bool stuckReadsOne(int col) const { return test(stuckHrs, col); }
    bool isWeak(int col) const { return test(weak, col); }
    bool isUsable(int col) const { return !isStuck(col) && !isWeak(col); }

   private:
    static bool test(const uint64_t* plane, int col) {
      return (plane[col >> 6] >> (col & 63)) & 1;
    }
  };
  /// The planes of row `row` of array `arrayId` (bounds-checked).
  RowWords rowWords(int arrayId, int row) const;

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
  /// Every column starts at `rowLimit` and loses one cell per set bit of
  /// the stuck and weak planes, so the cost follows the fault count.
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

  bool operator==(const FaultMap&) const = default;

 private:
  /// Planes per row, in storage order.
  enum Plane : size_t { kStuck, kStuckHrs, kWeak, kPlanes };

  size_t rowIndex(int arrayId, int row) const;
  /// Offset of the word holding (arrayId, row, col) in the row's stuck
  /// plane; the other planes follow at multiples of colWords_.
  size_t wordIndex(int arrayId, int row, int col) const;
  uint64_t* rowPlane(size_t rowIdx, Plane plane) {
    return planes_.data() + (rowIdx * kPlanes + plane) * colWords_;
  }
  const uint64_t* rowPlane(size_t rowIdx, Plane plane) const {
    return planes_.data() + (rowIdx * kPlanes + plane) * colWords_;
  }
  long countPlane(Plane plane) const;

  int numArrays_ = 0;
  int rows_ = 0;
  int cols_ = 0;
  size_t colWords_ = 0;  ///< ceil(cols / 64)
  FaultMapOptions options_;
  /// Per (array, row), in that order: the stuck, stuck-at-HRS and weak
  /// planes, colWords_ words each.
  std::vector<uint64_t> planes_;
  std::vector<long> rowWrites_;
};

}  // namespace sherlock::device
