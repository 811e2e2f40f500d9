#include "arraymodel/array_model.h"

#include <cmath>

#include "support/diagnostics.h"

namespace sherlock::arraymodel {

namespace {
// Interconnect constants, loosely calibrated against NVSim trends for
// 22 nm-class peripheral CMOS.
constexpr double kDecodeBaseNs = 0.20;
constexpr double kDecodePerBitNs = 0.05;
constexpr double kWordlinePerCellNs = 0.0005;
constexpr double kBitlinePerCellNs = 0.0010;
constexpr double kShiftBaseNs = 0.50;
// Serial row-buffer rotation: one pipeline step per position (the
// instruction carries an explicit distance operand).
constexpr double kShiftPerStepNs = 0.20;

constexpr double kWordlineEnergyPerCellPj = 0.0001;  // per slice
constexpr double kBitlineEnergyPerCellPj = 0.0002;   // per slice
constexpr double kSenseAmpEnergyPj = 0.02;           // per column per slice
constexpr double kShiftEnergyPerStepPj = 0.001;      // per slice
}  // namespace

ArrayCostModel::ArrayCostModel(ArrayGeometry geometry,
                               device::TechnologyParams tech)
    : geometry_(geometry), tech_(std::move(tech)) {
  checkArg(geometry_.rows > 0 && geometry_.cols > 0,
           "array dimensions must be positive");
  checkArg(geometry_.dataWidthBits > 0, "data width must be positive");
}

double ArrayCostModel::decodeLatencyNs() const {
  return kDecodeBaseNs +
         kDecodePerBitNs * std::log2(static_cast<double>(geometry_.rows));
}

double ArrayCostModel::wordlineLatencyNs() const {
  return kWordlinePerCellNs * geometry_.cols;
}

double ArrayCostModel::bitlineLatencyNs() const {
  return kBitlinePerCellNs * geometry_.rows;
}

double ArrayCostModel::readLatencyNs() const {
  return decodeLatencyNs() + wordlineLatencyNs() + bitlineLatencyNs() +
         tech_.readLatencyNs;
}

double ArrayCostModel::writeIssueLatencyNs() const {
  return decodeLatencyNs() + wordlineLatencyNs();
}

double ArrayCostModel::writeCompletionNs() const {
  return writeIssueLatencyNs() + tech_.writeLatencyNs;
}

double ArrayCostModel::shiftLatencyNs(int distance) const {
  return kShiftBaseNs + kShiftPerStepNs * std::abs(distance);
}

double ArrayCostModel::readEnergyPj(int rowCount, int colCount) const {
  double perSlice =
      rowCount * kWordlineEnergyPerCellPj * geometry_.cols +
      colCount * (kBitlineEnergyPerCellPj * geometry_.rows +
                  kSenseAmpEnergyPj + rowCount * tech_.readEnergyPj);
  return perSlice * geometry_.dataWidthBits;
}

double ArrayCostModel::writeEnergyPj(int colCount) const {
  double perSlice = kWordlineEnergyPerCellPj * geometry_.cols +
                    colCount * (kBitlineEnergyPerCellPj * geometry_.rows +
                                tech_.writeEnergyPj);
  return perSlice * geometry_.dataWidthBits;
}

double ArrayCostModel::shiftEnergyPj(int distance) const {
  return kShiftEnergyPerStepPj * std::abs(distance) *
         geometry_.dataWidthBits;
}

}  // namespace sherlock::arraymodel
