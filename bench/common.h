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

#include <optional>
#include <string>

#include "cpu/cpu_model.h"
#include "device/faultmap.h"
#include "ir/analysis.h"
#include "mapping/compiler.h"
#include "mapping/program_analysis.h"
#include "sim/simulator.h"
#include "transforms/nand_lowering.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
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
  mapping::Strategy strategy = mapping::Strategy::Optimized;
  /// Maximum operands per op; > 2 applies the Sec. 3.3.3 node
  /// substitution before mapping.
  int mra = 2;
  /// Fraction of merge opportunities when mra > 2 (Fig. 6 knob).
  double mraFraction = 1.0;
  /// Lower XOR/OR to NAND form first (STT-MRAM reliable flow, Fig. 6b).
  bool nandLowered = false;

  /// Fault tolerance (bench_fault_tolerance): a positive stuck density
  /// generates a persistent fault map (seeded by faultSeed) that
  /// placement avoids and the simulator honors; spareRows reserves the
  /// repair region; guarded turns on Monte-Carlo injection with
  /// detect-and-retry execution. Defaults keep every other bench on the
  /// perfect-array path.
  double faultStuckDensity = 0.0;
  double faultWeakDensity = 0.0;
  uint64_t faultSeed = 1;
  int spareRows = 0;
  /// Monte-Carlo decision-failure injection (without guarding: the
  /// unprotected baseline the yield table contrasts against).
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
  size_t instructionCount = 0;
  long cimReadInstructions = 0;  ///< CIM-read instructions emitted
  size_t opCount = 0;
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

  ir::Graph working = cfg.nandLowered
                          ? transforms::canonicalize(
                                transforms::lowerToNand(canonical))
                          : ir::Graph{};
  const ir::Graph* base = cfg.nandLowered ? &working : &canonical;

  RunResult out;
  ir::Graph merged;
  const ir::Graph* final = base;
  if (cfg.mra > 2) {
    transforms::SubstitutionOptions sopt;
    sopt.maxOperands = cfg.mra;
    sopt.fraction = cfg.mraFraction;
    sopt.order = cfg.strategy == mapping::Strategy::Optimized
                     ? transforms::MergeOrder::ByAffinity
                     : transforms::MergeOrder::ByPriority;
    auto sub = transforms::substituteNodes(*base, sopt);
    merged = std::move(sub.graph);
    out.substitution = sub.stats;
    final = &merged;
  }

  std::optional<device::FaultMap> faultMap;
  if (cfg.faultStuckDensity > 0.0 || cfg.faultWeakDensity > 0.0) {
    device::FaultMapOptions fo;
    fo.seed = cfg.faultSeed;
    fo.stuckDensity = cfg.faultStuckDensity;
    fo.weakDensity = cfg.faultWeakDensity;
    faultMap = device::FaultMap::generate(target.numArrays, target.rows(),
                                          target.cols(), fo);
  }

  mapping::CompileOptions copts;
  copts.strategy = cfg.strategy;
  copts.faults.map = faultMap ? &*faultMap : nullptr;
  copts.faults.spareRows = cfg.spareRows;
  auto compiled = mapping::compile(*final, target, copts);
  sim::SimOptions sopts;
  sopts.laneWords = cfg.laneWords;
  sopts.faultMap = copts.faults.map;
  sopts.guardedExecution = cfg.guarded;
  sopts.injectFaults = cfg.injectFaults || cfg.guarded;
  sopts.faultSeed = cfg.faultSeed;
  out.sim = sim::simulate(*final, target, compiled.program, sopts);
  out.stats = compiled.program.stats;
  out.instructionCount = compiled.program.instructions.size();
  out.cimReadInstructions = mapping::analyzeProgram(compiled.program).cimReads;
  out.opCount = final->opCount();
  return out;
}

}  // namespace sherlock::bench
