#include "device/reliability.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"
#include "support/stats.h"

namespace sherlock::device {

SenseKind senseKindOf(ir::OpKind op) {
  switch (op) {
    case ir::OpKind::And:
    case ir::OpKind::Nand:
      return SenseKind::And;
    case ir::OpKind::Or:
    case ir::OpKind::Nor:
      return SenseKind::Or;
    case ir::OpKind::Xor:
    case ir::OpKind::Xnor:
      return SenseKind::Xor;
    case ir::OpKind::Not:
    case ir::OpKind::Copy:
      return SenseKind::PlainRead;
  }
  throw InternalError("senseKindOf: invalid OpKind");
}

namespace {

/// Conductance sigma of the state with k LRS cells out of r, including the
/// reference/comparator noise term.
double stateSigma(const TechnologyParams& t, int k, int r) {
  double sL = t.lrsSigma * t.lrsConductance();
  double sH = t.hrsSigma * t.hrsConductance();
  double sRef = t.referenceSigmaFrac * t.senseGap();
  return std::sqrt(k * sL * sL + (r - k) * sH * sH + sRef * sRef);
}

/// Misdecision probability of the boundary between states k and k+1. The
/// reference is placed optimally between the two Gaussians (equalizing the
/// two error tails), giving P = Q(dG / (sigma_k + sigma_{k+1})) — the
/// standard two-distribution discrimination bound.
double boundaryFailure(const TechnologyParams& t, int k, int r) {
  double gap = t.senseGap();
  return normalTail(gap / (stateSigma(t, k, r) + stateSigma(t, k + 1, r)));
}

}  // namespace

double decisionFailureProbability(const TechnologyParams& tech,
                                  SenseKind kind, int rows) {
  checkArg(rows >= 1, "rows must be >= 1");
  checkArg(rows <= tech.maxActivatedRows,
           rows, " activated rows exceed the technology cap of ",
           tech.maxActivatedRows);
  if (kind != SenseKind::PlainRead)
    checkArg(rows >= 2, "logic sensing requires >= 2 rows");

  double p = 0.0;
  switch (kind) {
    case SenseKind::PlainRead:
      // Distinguish one LRS cell from one HRS cell (full gap, midway ref).
      p = boundaryFailure(tech, 0, 1);
      break;
    case SenseKind::And:
      // Output flips only across the boundary all-HRS (k=0) vs k=1.
      p = boundaryFailure(tech, 0, rows);
      break;
    case SenseKind::Or:
      // Output flips only across the boundary k=r-1 vs all-LRS (k=r).
      p = boundaryFailure(tech, rows - 1, rows);
      break;
    case SenseKind::Xor:
      // Parity flips across every adjacent boundary; multi-level sensing
      // must resolve all of them.
      for (int k = 0; k < rows; ++k) p += boundaryFailure(tech, k, rows);
      break;
  }
  return std::clamp(p, 0.0, 0.5);
}

double decisionFailureProbability(const TechnologyParams& tech,
                                  ir::OpKind op, int rows) {
  return decisionFailureProbability(tech, senseKindOf(op), rows);
}

void AppFailureAccumulator::add(double pdf) { addMany(pdf, 1); }

void AppFailureAccumulator::addMany(double pdf, long count) {
  checkArg(pdf >= 0.0 && pdf <= 1.0, "P_DF must be in [0, 1]");
  checkArg(count >= 0, "count must be non-negative");
  if (count == 0) return;
  // log1p keeps precision for pdf down to ~1e-300.
  logSurvival_ += static_cast<double>(count) * std::log1p(-pdf);
  count_ += count;
}

double AppFailureAccumulator::probability() const {
  return -std::expm1(logSurvival_);
}

}  // namespace sherlock::device
