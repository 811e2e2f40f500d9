#include "mapping/flow.h"

#include <sstream>
#include <utility>

#include "ir/analysis.h"
#include "mapping/program_analysis.h"
#include "support/diagnostics.h"
#include "transforms/nand_lowering.h"
#include "transforms/passes.h"

namespace sherlock::mapping {

namespace {

void checkFlow(const isa::TargetSpec& target, const FlowOptions& options) {
  // Four times the paper's largest array: a fault map over 16 such
  // arrays stays within 256 MiB.
  constexpr int kMaxDim = 4096;
  checkArg(target.rows() >= 1 && target.rows() <= kMaxDim &&
               target.cols() >= 1 && target.cols() <= kMaxDim,
           "array dimension ", target.rows(), "x", target.cols(),
           " is outside [1, ", kMaxDim, "]");
  checkArg(options.fraction >= 0.0 && options.fraction <= 1.0,
           "merge fraction ", options.fraction, " is outside [0, 1]");
  checkArg(options.faultDensity >= 0.0 && options.faultDensity <= 2.0 / 3.0,
           "fault density ", options.faultDensity,
           " is outside [0, 2/3] (d stuck plus d/2 weak cells)");
  checkArg(options.spareRows >= 0 && options.spareRows < target.rows(),
           "spare rows ", options.spareRows, " are outside [0, ",
           target.rows(), ")");
}

}  // namespace

ir::Graph prepareGraph(const ir::Graph& g, const FlowOptions& options) {
  ir::Graph prepared = transforms::canonicalize(g);
  if (options.foldInverters) prepared = transforms::foldInverters(prepared);
  if (options.nandLower)
    prepared = transforms::canonicalize(transforms::lowerToNand(prepared));
  return prepared;
}

transforms::SubstitutionResult substitute(ir::Graph prepared,
                                          const isa::TargetSpec& target,
                                          const FlowOptions& options) {
  if (target.maxActivatedRows <= 2) return {std::move(prepared), {}};
  transforms::SubstitutionOptions sopt;
  sopt.maxOperands = target.maxActivatedRows;
  sopt.fraction = options.fraction;
  sopt.order = options.order;
  return transforms::substituteNodes(prepared, sopt);
}

std::optional<device::FaultMap> faultMapFor(const isa::TargetSpec& target,
                                            const FlowOptions& options) {
  checkFlow(target, options);
  if (options.faultDensity <= 0.0) return std::nullopt;
  device::FaultMapOptions fo;
  fo.seed = options.faultSeed;
  fo.stuckDensity = options.faultDensity;
  fo.weakDensity = options.faultDensity * 0.5;
  return device::FaultMap::generate(target.numArrays, target.rows(),
                                    target.cols(), fo);
}

FlowResult compilePrepared(ir::Graph prepared, const isa::TargetSpec& target,
                           const FlowOptions& options) {
  FlowResult result;
  result.faultMap = faultMapFor(target, options);
  transforms::SubstitutionResult sub =
      substitute(std::move(prepared), target, options);
  result.graph = std::move(sub.graph);
  result.substitution = sub.stats;

  CompileOptions copts;
  copts.strategy = options.strategy;
  copts.faults.map = result.faultMap ? &*result.faultMap : nullptr;
  copts.faults.spareRows = options.spareRows;
  try {
    result.compiled = compile(result.graph, target, copts);
  } catch (const MappingError& e) {
    if (!copts.faults.active()) throw;
    const device::FaultMap* map = copts.faults.map;
    throw MappingError(strCat(
        "fault-aware placement failed: ", e.what(), "\n  fault map: seed ",
        options.faultSeed, ", ", map ? map->stuckCellCount() : 0,
        " stuck + ", map ? map->weakCellCount() : 0, " weak cells (density ",
        options.faultDensity, "), ", options.spareRows,
        " spare rows per column\n  hint: raise the spare rows, lower the "
        "fault density, or enlarge the target"));
  }
  return result;
}

FlowResult compileFlow(const ir::Graph& g, const isa::TargetSpec& target,
                       const FlowOptions& options) {
  return compilePrepared(prepareGraph(g, options), target, options);
}

std::string statsText(const FlowResult& result, const isa::TargetSpec& target,
                      const FlowOptions& options) {
  const Program& program = result.compiled.program;
  const CodegenStats& s = program.stats;
  ProgramAnalysis analysis = analyzeProgram(program);
  std::ostringstream out;
  out << "DAG:            " << result.graph.opCount() << " ops, "
      << result.graph.valueCount() << " values, critical path "
      << ir::criticalPathLength(result.graph) << "\n";
  if (target.maxActivatedRows > 2)
    out << "substitution:   " << result.substitution.applied << "/"
        << result.substitution.candidates << " merges, "
        << result.substitution.wideOps << " wide ops\n";
  out << "merged:         " << s.mergedInstructions << "\n"
      << "columns used:   " << program.usedColumns
      << ", peak live cells: " << program.peakLiveCells << "\n";
  if (result.faultMap || options.spareRows > 0) {
    const device::FaultMap* map = result.faultMap ? &*result.faultMap : nullptr;
    out << "fault repair:   " << s.spareRowAllocations
        << " spare-row allocations (" << (map ? map->stuckCellCount() : 0)
        << " stuck + " << (map ? map->weakCellCount() : 0)
        << " weak cells avoided)\n";
  }
  if (options.strategy == Strategy::Optimized)
    out << "clusters:       " << result.compiled.clustering.clusters.size()
        << " (cross edges " << result.compiled.clustering.crossClusterEdges
        << ")\n"
        << "CIM reads:      " << analysis.cimReads << " (round floor "
        << s.roundFloor << ", busiest column " << s.busiestColumn
        << ", critical path " << s.criticalPath << ")\n";
  out << "\n" << analysis.toString();
  return out.str();
}

}  // namespace sherlock::mapping
