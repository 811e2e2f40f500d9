// The shared tail of every workload's compile path: mapping, code
// generation, static verification and simulation, each timed from
// outside, plus the per-pass statistics and the metrics derived from
// them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "ir/graph.h"
#include "isa/target.h"
#include "mapping/layout.h"
#include "mapping/program.h"
#include "sim/simulator.h"

namespace perfbench {

/// Host time per layer and the counters of one pass over a workload's
/// configs.
struct PassStats {
  double buildMs = 0, frontendMs = 0, irMs = 0, canonicalizeMs = 0;
  double substituteMs = 0, faultmapMs = 0, mapMs = 0, codegenMs = 0;
  double verifyMs = 0, simMs = 0;
  /// Compile and simulate time of each config (or distinct kernel), in
  /// pass order.
  std::vector<double> compileMsEach, simMsEach;
  long opsOut = 0;           ///< ops of the graphs handed to mapping
  sherlock::mapping::CodegenStats codegen;
  long checkedInsts = 0;
  double simInstLanes = 0;  ///< simulated instructions x lane words
  double stallNs = 0, busWaitNs = 0;
  long injectedFaults = 0, retriedOps = 0, degradedOps = 0;
  std::vector<double> latencyUs, energyUj, pApp, insts;
  int cleanRuns = 0;  ///< simulations with no corrupted output lane
  /// Per config: asm digest plus every modeled number.
  std::vector<std::string> fingerprints;

  double compileMs() const {
    return buildMs + frontendMs + irMs + canonicalizeMs + substituteMs +
           faultmapMs + mapMs + codegenMs + verifyMs;
  }
};

/// How one config is mapped and simulated.
struct LowerOptions {
  bool optimized = true;
  sherlock::mapping::FaultPolicy faults;
  sherlock::sim::SimOptions sim;
};

/// Maps, code-generates, verifies and simulates `g` with the option
/// pairing mapping::compile uses for the strategy, timing each call
/// into `pass` and adding the program's counters and modeled numbers.
/// Returns the program's assembly text, or nullopt after reporting a
/// failure: a verifier rejection, a simulator error, or — without faults
/// — outputs that differ from the IR reference evaluator.
std::optional<std::string> lowerAndSimulate(
    const std::string& label, const sherlock::ir::Graph& g,
    const sherlock::isa::TargetSpec& target, const LowerOptions& options,
    PassStats& pass, Report& report);

/// The sum over configs of each config's median time across `passes`
/// (the first pass must be complete): a noise burst during one config of
/// one pass does not move it.
double sumOfMedians(const std::vector<PassStats>& passes,
                    std::vector<double> PassStats::*each);

/// Modeled metrics and per-layer counts of one pass. They repeat exactly
/// for a seed, so they also go into the determinism record.
void reportModeled(const PassStats& pass, Report& report);

/// Per-layer host times: the median over `passes` of each layer's time
/// per pass.
void reportLayerTimes(const std::vector<PassStats>& passes, Report& report);

/// Milliseconds to construct a mapping::Layout for the target.
double layoutInitMs(const sherlock::isa::TargetSpec& target,
                    const sherlock::mapping::FaultPolicy& faults);

}  // namespace perfbench
