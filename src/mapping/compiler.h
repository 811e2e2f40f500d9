// One-call compilation facade: DAG + target -> CIM program, selecting the
// mapping strategy. This is the entry point examples and benches use; the
// individual stages (mapNaive / mapOptimized / generateCode) remain public
// for finer control.
#pragma once

#include <optional>

#include "ir/graph.h"
#include "isa/target.h"
#include "mapping/codegen.h"
#include "mapping/naive_mapper.h"
#include "mapping/opt_mapper.h"
#include "mapping/program.h"
#include "support/trace.h"
#include "verify/verifier.h"

namespace sherlock::mapping {

enum class Strategy { Naive, Optimized };

struct CompileOptions {
  Strategy strategy = Strategy::Optimized;
  /// Cross-cluster instruction merging. Defaults to the paper's pairing:
  /// enabled for the optimized mapper, disabled for the naive baseline.
  /// Set explicitly to override (ablation A2).
  std::optional<bool> mergeInstructions;
  /// Eager per-op result write-back (Algorithm 1's straightforward
  /// codegen). Defaults to the paper's pairing: naive eager, optimized
  /// lazy. Set explicitly to override (ablation).
  std::optional<bool> eagerWriteback;
  /// Scheduler wave ordering (ablation; default b-level).
  CodegenOptions::WaveOrder waveOrder = CodegenOptions::WaveOrder::BLevel;
  /// Refinement sweeps and the column cap (optimized strategy only).
  OptMapperOptions optimizer;
  /// Fault-aware placement: consult the map, avoid faulty cells, repair
  /// collisions into spare rows (see mapping/layout.h). The verifier run
  /// proves the program touches no stuck cell.
  FaultPolicy faults;
};

struct CompileResult {
  Program program;
  PlacementPlan plan;
  /// Clustering details (optimized strategy only).
  ClusteringResult clustering;
};

/// Maps, generates code, then proves the program with
/// verify::checkProgram (against the fault map and spare rows, when
/// given): every program it returns has passed the verifier, and an
/// illegal one throws VerificationError instead.
inline CompileResult compile(const ir::Graph& g,
                             const isa::TargetSpec& target,
                             const CompileOptions& options = {}) {
  CompileResult result;
  bool optimized = options.strategy == Strategy::Optimized;
  {
    trace::Span span("mapping", "map");
    if (optimized) {
      OptMapping m = mapOptimized(g, target, options.optimizer,
                                  options.faults);
      result.plan = std::move(m.plan);
      result.clustering = std::move(m.clustering);
    } else {
      result.plan = mapNaive(g, target, options.faults);
    }
  }
  CodegenOptions cg;
  cg.mergeInstructions = options.mergeInstructions.value_or(optimized);
  cg.eagerWriteback = options.eagerWriteback.value_or(!optimized);
  cg.reuseMovedCopies = optimized;
  cg.waveOrder = options.waveOrder;
  cg.faults = options.faults;
  {
    trace::Span span("mapping", "codegen");
    result.program = generateCode(g, target, result.plan, cg);
  }
  {
    trace::Span span("mapping", "verify");
    verify::VerifyOptions vopts;
    vopts.faultMap = options.faults.map;
    vopts.spareRows = options.faults.spareRows;
    verify::checkProgram(g, target, result.program, vopts);
  }
  return result;
}

}  // namespace sherlock::mapping
