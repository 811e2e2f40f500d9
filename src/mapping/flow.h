// The front half of the Sherlock flow, written once: graph preparation,
// node substitution (Sec. 3.3.3), the fault map for a density, then
// mapping::compile, plus the stats text. sherlockc, the compile service,
// the benches and the golden test compile through here. The stages stay
// callable: the service keys its cache on the prepared graph, and
// `sherlockc --emit dot|dag|faultmap` stops before mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "device/faultmap.h"
#include "mapping/compiler.h"
#include "transforms/substitution.h"

namespace sherlock::mapping {

struct FlowOptions {
  Strategy strategy = Strategy::Optimized;
  /// Node substitution's merge budget, in [0, 1]. Substitution runs when
  /// the target's maxActivatedRows is above 2, with that many operands
  /// at most.
  double fraction = 1.0;
  transforms::MergeOrder order = transforms::MergeOrder::ByPriority;
  bool nandLower = false;
  bool foldInverters = false;  ///< -O
  /// Density d in [0, 2/3] of d stuck plus d/2 weak cells; 0 compiles
  /// for perfect arrays.
  double faultDensity = 0.0;
  uint64_t faultSeed = 1;
  int spareRows = 0;
};

struct FlowResult {
  ir::Graph graph;  ///< prepared and substituted: the graph compiled
  transforms::SubstitutionStats substitution;
  std::optional<device::FaultMap> faultMap;
  CompileResult compiled;
};

/// Dead-node elimination, then -O inverter folding and NAND lowering.
ir::Graph prepareGraph(const ir::Graph& g, const FlowOptions& options);

/// Node substitution, or the graph unchanged at maxActivatedRows <= 2.
transforms::SubstitutionResult substitute(ir::Graph prepared,
                                          const isa::TargetSpec& target,
                                          const FlowOptions& options);

/// Throws Error, naming the bound, unless the array dimensions are in
/// [1, 4096], the fraction in [0, 1], the fault density in [0, 2/3] and
/// the spare rows in [0, rows); then generates the fault map, or nullopt
/// at density 0.
std::optional<device::FaultMap> faultMapFor(const isa::TargetSpec& target,
                                            const FlowOptions& options);

/// faultMapFor, substitute, then mapping::compile.
FlowResult compilePrepared(ir::Graph prepared, const isa::TargetSpec& target,
                           const FlowOptions& options);

/// prepareGraph, then compilePrepared.
FlowResult compileFlow(const ir::Graph& g, const isa::TargetSpec& target,
                       const FlowOptions& options);

/// What `sherlockc --emit stats` and the service's `emit=stats` print.
std::string statsText(const FlowResult& result, const isa::TargetSpec& target,
                      const FlowOptions& options);

}  // namespace sherlock::mapping
