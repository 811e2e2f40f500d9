// Analytic array-level latency/energy model (NVSim stand-in).
//
// The paper derives array-level numbers from NVSim for square arrays of
// 128/256/512/1024 with data widths 512/1024/2048/4096 bits. We model the
// same hierarchy analytically: address decoding grows with log2(N),
// wordline/bitline RC and switching energy grow linearly with N, and the
// cell-level sensing/programming terms come from the technology model.
// The bulk data width multiplies per-cell energies (all slices switch in
// lockstep) but not latency (slices are parallel).
#pragma once

#include "device/technology.h"

namespace sherlock::arraymodel {

/// Geometry of one CIM array (plus the lockstepped bulk dimension).
struct ArrayGeometry {
  int rows = 0;
  int cols = 0;
  int dataWidthBits = 0;  ///< bulk slices operating in lockstep

  /// Paper Table 1 pairing: square N x N array with data width 4N.
  static ArrayGeometry square(int n) { return {n, n, 4 * n}; }
};

/// Per-instruction latency (ns) and energy (pJ) for one array.
class ArrayCostModel {
 public:
  ArrayCostModel(ArrayGeometry geometry, device::TechnologyParams tech);

  const ArrayGeometry& geometry() const { return geometry_; }
  const device::TechnologyParams& technology() const { return tech_; }

  // --- Latency (ns) -------------------------------------------------------

  /// CPU-side dispatch of one CIM instruction (1 GHz in-order core).
  double dispatchLatencyNs() const { return 1.0; }

  /// Inter-array bus leg of one xfer: every transfer between two
  /// distinct arrays crosses the one shared bus once.
  double busLatencyNs() const { return 10.0; }

  /// Scouting/plain read: decode + wordline + bitline development + sense.
  /// Latency is independent of the number of sensed columns (parallel
  /// sense amps) and of the activated-row count (parallel wordlines).
  double readLatencyNs() const;

  /// Issue latency of a (posted) write: decode + wordline. The cell
  /// programming time is exposed only on read-after-write, see
  /// writeCompletionNs.
  double writeIssueLatencyNs() const;

  /// Time from write issue until the written cells can be sensed again.
  double writeCompletionNs() const;

  /// Row-buffer rotation by `distance` positions.
  double shiftLatencyNs(int distance) const;

  // --- Energy (pJ), aggregated over all bulk slices -----------------------

  /// CIM/plain read activating `rowCount` rows and sensing `colCount`
  /// columns.
  double readEnergyPj(int rowCount, int colCount) const;

  /// Write of `colCount` cells in one row.
  double writeEnergyPj(int colCount) const;

  double shiftEnergyPj(int distance) const;

  /// CPU-side issue energy per instruction.
  double dispatchEnergyPj() const { return 5.0; }

  /// Bus leg of one inter-array transfer: 0.5 pJ per bulk slice bit.
  double busEnergyPj() const { return 0.5 * geometry_.dataWidthBits; }

  // --- Area (mm^2) --------------------------------------------------------

  /// Cell-array footprint of one slice (rows x cols cells at the
  /// technology's F^2 cell size, 22 nm feature size).
  double cellAreaMm2() const;

  /// Peripheral footprint of one slice: row decoder, per-column sense
  /// amplifiers with op multiplexers, row-buffer logic and write drivers.
  double peripheryAreaMm2() const;

  /// Total footprint including all bulk slices.
  double totalAreaMm2() const;

 private:
  double decodeLatencyNs() const;
  double wordlineLatencyNs() const;
  double bitlineLatencyNs() const;

  ArrayGeometry geometry_;
  device::TechnologyParams tech_;
};

}  // namespace sherlock::arraymodel
