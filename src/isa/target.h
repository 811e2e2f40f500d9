// Description of the CIM target the mapper/scheduler compiles for:
// technology, array geometry, and the architectural feature set of
// Sec. 2.1 (per-column operation control, row-buffer operand chaining).
#pragma once

#include "arraymodel/array_model.h"
#include "device/technology.h"

namespace sherlock::isa {

struct TargetSpec {
  device::TechnologyParams tech;
  arraymodel::ArrayGeometry geometry;

  /// Arrays available to the mapper (layouts spill to additional arrays
  /// when one array's columns are exhausted). They share one flat bus:
  /// every inter-array transfer costs one bus leg (ArrayCostModel).
  int numArrays = 16;

  /// Maximum rows a single CIM read may activate. 2 restricts every
  /// operation to two operands (paper's "MRA = 2" configurations); larger
  /// values enable the Sec. 3.3.3 node-substitution transformation
  /// ("MRA >= 2"). Always capped by tech.maxActivatedRows.
  int maxActivatedRows = 2;

  /// Per-column operation multiplexers (Sec. 2.1). When false, one CIM
  /// read performs the same operation on every sensed column, restricting
  /// cross-cluster instruction merging to same-op groups.
  bool perColumnOps = true;

  /// Row-buffer operand chaining: a CIM read may combine the latched
  /// row-buffer bit of a column with the newly sensed cells, letting
  /// accumulation chains avoid materializing intermediates.
  bool bufferChaining = true;

  int rows() const { return geometry.rows; }
  int cols() const { return geometry.cols; }

  /// Effective multi-row-activation cap.
  int mraLimit() const {
    return maxActivatedRows < tech.maxActivatedRows ? maxActivatedRows
                                                    : tech.maxActivatedRows;
  }

  /// Square N x N target with the paper's data-width pairing.
  static TargetSpec square(int n, device::TechnologyParams tech,
                           int maxActivatedRows = 2) {
    TargetSpec t;
    t.tech = std::move(tech);
    t.geometry = arraymodel::ArrayGeometry::square(n);
    t.maxActivatedRows = maxActivatedRows;
    return t;
  }
};

}  // namespace sherlock::isa
