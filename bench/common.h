// Shared helpers for the benchmark harnesses: canonical workload
// instances, target construction, and a one-call pipeline runner that
// compiles and simulates a configuration and returns everything the
// tables need.
//
// Concurrency contract: runPipeline is a pure function of (graph,
// config) — it never mutates the input graph or any global state, and
// all stochastic behavior inside the pipeline is seeded from the config.
// Multiple runPipeline calls may therefore execute concurrently on a
// shared const graph; bench/sweep.h builds the parallel sweep harness on
// exactly this guarantee.
#pragma once

#include <string>

#include "cpu/cpu_model.h"
#include "ir/analysis.h"
#include "mapping/flow.h"
#include "mapping/program_analysis.h"
#include "sim/simulator.h"
#include "transforms/passes.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/sobel.h"

namespace sherlock::bench {

/// The evaluation instances (Sec. 4): a 32-segment BETWEEN scan, a
/// 16-window Sobel strip, and full AES-128.
inline ir::Graph makeWorkload(const std::string& name) {
  if (name == "Bitweaving") {
    workloads::BitweavingSpec s;
    s.bits = 16;
    s.segments = 32;
    return transforms::canonicalize(workloads::buildBitweaving(s));
  }
  if (name == "Sobel") {
    workloads::SobelSpec s;
    s.width = 16;
    return transforms::canonicalize(workloads::buildSobel(s));
  }
  if (name == "AES") {
    return transforms::canonicalize(workloads::buildAes({10}));
  }
  throw Error(strCat("unknown workload ", name));
}

inline const char* kWorkloads[] = {"Bitweaving", "Sobel", "AES"};

struct RunConfig {
  device::Technology tech = device::Technology::ReRam;
  int arrayDim = 1024;
  /// Maximum operands per op; > 2 applies the Sec. 3.3.3 node
  /// substitution before mapping.
  int mra = 2;
  /// Strategy, merge budget (Fig. 6 knob), NAND lowering (STT-MRAM
  /// reliable flow, Fig. 6b) and the fault map, which placement avoids
  /// and the simulator honors. runPipeline pairs the merge order with
  /// the strategy. Defaults keep the benches on the perfect-array path.
  mapping::FlowOptions flow;

  /// Monte-Carlo decision-failure injection, seeded by flow.faultSeed
  /// (without guarding: the unprotected baseline the yield table
  /// contrasts against); guarded adds detect-and-retry execution.
  bool injectFaults = false;
  bool guarded = false;

  /// Packed lane words per cell (64 * laneWords bulk lanes per run);
  /// Monte-Carlo harnesses trade trial count against this at equal
  /// sample count.
  int laneWords = 1;
};

struct RunResult {
  sim::SimResult sim;
  mapping::CodegenStats stats;
  long cimReadInstructions = 0;  ///< CIM-read instructions emitted
  transforms::SubstitutionStats substitution;
};

/// Bulk width of the evaluated workloads (bits of every logical operand).
/// This is a property of the data, so it stays constant across array
/// sizes: a smaller array simply needs more lockstepped slices.
inline constexpr int kBulkBits = 4096;

inline RunResult runPipeline(const ir::Graph& canonical,
                             const RunConfig& cfg) {
  isa::TargetSpec target = isa::TargetSpec::square(
      cfg.arrayDim, device::TechnologyParams::forTechnology(cfg.tech),
      cfg.mra);
  target.geometry.dataWidthBits = kBulkBits;

  // The benches pair the merge order with the mapper: the order coupled
  // to the optimized mapper's clustering for opt, the mapping-independent
  // one for naive. At the full budget both give the same graph
  // (Golden.MergeOrderIsIrrelevantAtFullBudget).
  mapping::FlowOptions flow = cfg.flow;
  flow.order = flow.strategy == mapping::Strategy::Optimized
                   ? transforms::MergeOrder::ByAffinity
                   : transforms::MergeOrder::ByPriority;
  mapping::FlowResult compiled = mapping::compileFlow(canonical, target, flow);
  const mapping::Program& program = compiled.compiled.program;

  sim::SimOptions sopts;
  sopts.staticVerify = false;  // compileFlow verified the program
  sopts.laneWords = cfg.laneWords;
  sopts.faultMap = compiled.faultMap ? &*compiled.faultMap : nullptr;
  sopts.guardedExecution = cfg.guarded;
  sopts.injectFaults = cfg.injectFaults || cfg.guarded;
  sopts.faultSeed = flow.faultSeed;
  RunResult out;
  out.sim = sim::simulate(compiled.graph, target, program, sopts);
  out.stats = program.stats;
  out.cimReadInstructions = mapping::analyzeProgram(program).cimReads;
  out.substitution = compiled.substitution;
  return out;
}

}  // namespace sherlock::bench
