// Post-compilation analysis of CIM programs: instruction mix, merging
// width and multi-row-activation histograms, and per-array utilization.
// Used by the sherlockc driver and the evaluation harnesses to explain
// where a mapping's cost comes from.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mapping/program.h"

namespace sherlock::mapping {

struct ProgramAnalysis {
  long instructions = 0;
  long reads = 0;        ///< all read forms
  long cimReads = 0;     ///< reads carrying column ops
  long plainReads = 0;
  long writes = 0;
  long hostWrites = 0;   ///< writes carrying host data (hostWriteValues)
  long shifts = 0;
  long xfers = 0;

  /// histogram[k] = reads activating exactly k rows (k = 0 for pure
  /// row-buffer ops).
  std::vector<long> activatedRowsHistogram;

  /// histogram[k] = instructions touching exactly k columns (merge width).
  std::vector<long> columnWidthHistogram;

  /// Per op mnemonic: how many column-ops use it.
  std::map<std::string, long> opMix;

  long chainedOperands = 0;
  long totalShiftDistance = 0;

  /// Instructions per array id.
  std::map<int, long> perArray;

  /// Mean columns per read/write (the merging payoff).
  double meanColumnsPerAccess() const;

  /// Renders a multi-line human-readable report.
  std::string toString() const;
};

/// Analyzes a compiled program's instruction stream.
ProgramAnalysis analyzeProgram(const Program& program);

}  // namespace sherlock::mapping
