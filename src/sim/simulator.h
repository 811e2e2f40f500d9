// CIM system simulator (gem5 stand-in).
//
// Runs a compiled Program at two levels simultaneously:
//
//  * Functional: bit-accurate execution of every instruction on modeled
//    cell arrays and row buffers. Each cell holds `laneWords` packed
//    64-bit words, simulating 64 * laneWords lockstep bulk lanes per
//    column-op — one host word instruction per lane-word instead of one
//    per bit. Graph outputs are compared against the IR reference
//    evaluator — any mapper/codegen bug surfaces as a verification
//    failure. Reads of never-written cells or invalid buffer slots throw.
//
//  * Timing/energy/reliability: an in-order 1 GHz core dispatches one
//    instruction per cycle; reads occupy the array for the sensing
//    latency; writes are POSTED — they return after issue and complete in
//    the background, but a later read activating a row with a pending
//    write stalls until the programming finishes (read-after-write
//    exposure: this is what makes write-heavy DAGs technology-sensitive
//    while well-interleaved ones hide the write latency). Energy uses the
//    array cost model; every scouting column-op accumulates its
//    decision-failure probability into P_app = 1 - prod(1 - P_DFi).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arraymodel/array_model.h"
#include "device/faultmap.h"
#include "ir/graph.h"
#include "isa/target.h"
#include "mapping/program.h"

namespace sherlock::sim {

struct SimOptions {
  /// Packed lane-word count W: every cell/buffer value is W contiguous
  /// 64-bit words, so one run simulates 64 * W lockstep bulk lanes (the
  /// paper's 512–4096 bulk dimension at W = 8..64). Monte-Carlo harnesses
  /// trade trial count against W at equal sample count.
  int laneWords = 1;

  /// Bulk input words by input name (64-bit slice, lane word 0). Missing
  /// inputs — and lane words >= 1 of inputs not listed in `wideInputs` —
  /// get deterministic pseudo-random words derived from `inputSeed` (see
  /// defaultInputWord).
  std::map<std::string, uint64_t> inputs;

  /// Full lane-width input values: exactly `laneWords` packed words per
  /// named input. Takes precedence over `inputs` for every lane word.
  std::map<std::string, std::vector<uint64_t>> wideInputs;

  uint64_t inputSeed = 0x5eed;

  /// Compare output cells against the reference evaluator.
  bool verify = true;

  /// Statically verify the program (src/verify structural rules) before
  /// executing it: malformed streams fail with a VerificationError that
  /// pins the instruction index and violated rule instead of surfacing as
  /// a mid-execution SimulationError. This pass is the simulator's only
  /// instruction check. Precondition when off: the program is already
  /// verified for this target (mapping::compile returned it, or
  /// verify::verifyProgram accepted it). The simulator then still throws
  /// SimulationError on unwritten cells and invalid buffer columns, but
  /// an instruction that breaks verify::checkInstructionRules (an
  /// address out of bounds, a malformed shape) is undefined behaviour.
  bool staticVerify = true;

  /// Record per-read stall events (instruction index, stall ns, distance
  /// in instructions from the blocking write) for analysis.
  bool traceStalls = false;

  /// Monte-Carlo fault injection: every scouting column-op independently
  /// flips its result bit in each bulk lane with its decision-failure
  /// probability P_DF. Used to validate the analytic P_app model
  /// (bench_reliability_mc). Output verification then REPORTS mismatching
  /// lanes in SimResult::corruptedLaneWords instead of throwing.
  bool injectFaults = false;
  uint64_t faultSeed = 1;

  /// Persistent cell-fault model (device/faultmap.h). Stuck cells read as
  /// their pinned bit and ignore writes; weak cells multiply the P_DF of
  /// every scouting op sensing them (injection and the analytic P_app
  /// both see the inflated value); with a positive row write budget,
  /// rows wear out mid-run and convert to stuck-at-LRS. Output
  /// verification REPORTS mismatches in corruptedLaneWords instead of
  /// throwing, like injectFaults. Dimensions must match the target.
  const device::FaultMap* faultMap = nullptr;

  /// Guarded detect-and-retry execution: every scouting column-op whose
  /// effective P_DF exceeds 1e-9 (`kGuardPdfThreshold`) is duplicated as a
  /// check read; on mismatch the op is re-sensed up to `retryBudget` times
  /// (lockstep across the instruction's columns, with full latency and
  /// energy accounting). When the budget is exhausted the op degrades
  /// gracefully: it is split into single-row plain reads (MRA 1, the
  /// lowest-risk sensing mode) combined digitally in the row-buffer
  /// logic. Ops whose effective P_DF exceeds `degradePdfThreshold` skip
  /// the risky sense and degrade immediately: a check-read pair only
  /// detects a failure when the two samples disagree, so its residual
  /// undetected-error rate is ~P_DF^2 per lane — acceptable at 1e-4
  /// (STT-MRAM XOR at 2 rows) but not at the ~3e-3 of 3-row senses.
  /// Counters land in SimResult::{guarded,retried,degraded}Ops.
  bool guardedExecution = false;
  double degradePdfThreshold = 1e-3;
  int retryBudget = 3;
};

struct StallEvent {
  size_t instructionIndex = 0;
  double stallNs = 0;
  long writeDistance = 0;  ///< instructions since the blocking write
};

struct SimResult {
  double latencyNs = 0;
  double energyPj = 0;
  /// Portion of latency spent stalled on read-after-write exposure.
  double stallNs = 0;

  /// Latency by cause. Each part is accumulated beside the clock, so
  /// stallNs plus these parts sum to latencyNs (up to rounding). Bus
  /// wait is not a part: the issuing controller never waits for the bus.
  double dispatchNs = 0;        ///< one dispatch cycle per instruction
  double cimSenseNs = 0;        ///< first sense of every CIM read
  double plainReadNs = 0;       ///< first sense of every plain read
  double bufferOpNs = 0;        ///< rowless row-buffer ops
  double writeIssueNs = 0;      ///< issue of posted writes
  double shiftNs = 0;           ///< row-buffer rotations
  double xferSenseNs = 0;       ///< first sense of every transfer source
  double guardedResenseNs = 0;  ///< guarded check reads and retries
  double degradeNs = 0;         ///< single-row replays of degraded ops

  /// stallNs plus every latency part: latencyNs, summed in another order.
  double attributedNs() const;

  /// Energy by cause: one part per place that adds to energyPj, so the
  /// parts sum to energyPj (up to rounding).
  double dispatchPj = 0;        ///< one dispatch per instruction
  double cimSensePj = 0;        ///< first sense of every CIM read
  double plainReadPj = 0;       ///< first sense of every plain read
  double bufferOpPj = 0;        ///< rowless row-buffer ops
  double hostWritePj = 0;       ///< writes of host data (leaf values)
  double spillWritePj = 0;      ///< writes of row-buffer bits
  double shiftPj = 0;           ///< row-buffer rotations
  /// Transfers: every source sense (guarded ones too), the bus leg and
  /// the landing write.
  double xferPj = 0;
  double guardedResensePj = 0;  ///< guarded re-senses of CIM and plain reads
  double degradePj = 0;         ///< single-row replays of degraded ops

  /// Every energy part: energyPj, summed in another order.
  double attributedPj() const;

  /// Application failure probability (paper Sec. 4.2).
  double pApp = 0;
  /// Scouting column-operations executed (the N of the P_app product).
  long cimColumnOps = 0;

  long instructionCount = 0;

  /// Inter-array bus occupancy accounting. busBusyNs is the total time
  /// the shared bus spent carrying bits (one bus leg per xfer between
  /// distinct arrays); busWaitNs is the time transfers spent queued
  /// behind earlier traffic before the bus freed up.
  double busBusyNs = 0;
  double busWaitNs = 0;

  /// Outcome of the output comparison (options.verify): true iff every
  /// output lane matched the reference evaluator. Under injectFaults or a
  /// fault map, mismatches are recorded in corruptedLaneWords and
  /// verified reports whether any lane was actually corrupted.
  bool verified = false;

  /// Populated when SimOptions::traceStalls is set.
  std::vector<StallEvent> stallEvents;

  /// Fault injection only: number of injected bit flips, and the bulk
  /// lanes whose final outputs differ from the fault-free reference —
  /// one packed bitmask word per lane word (size laneWords; lane
  /// 64 * w + b corresponds to bit b of word w).
  long injectedFaults = 0;
  std::vector<uint64_t> corruptedLaneWords;

  /// Total corrupted lanes (popcount over corruptedLaneWords).
  long corruptedLanes() const;

  /// Fault-tolerant execution counters (faultMap / guardedExecution).
  long guardedOps = 0;      ///< column-ops that ran with a check read
  long retriedOps = 0;      ///< retry rounds after a value/check mismatch
  long degradedOps = 0;     ///< ops split to single-row reads (MRA 1)
  long stuckCellReads = 0;  ///< sensed bits forced by stuck-at cells
  long wornRows = 0;        ///< rows that exceeded the write budget

  double latencyUs() const { return latencyNs * 1e-3; }
  double energyUj() const { return energyPj * 1e-6; }
  /// Energy-delay product in uJ * us.
  double edp() const { return energyUj() * latencyUs(); }
};

/// Executes `program` (compiled from `g`) on the target. Throws
/// VerificationError on a program that breaks the verifier's structural
/// rules (options.staticVerify) and SimulationError on reads of unwritten
/// cells or invalid buffer columns; if options.verify is set, a
/// functional mismatch against the reference evaluator also throws.
SimResult simulate(const ir::Graph& g, const isa::TargetSpec& target,
                   const mapping::Program& program,
                   const SimOptions& options = {});

/// Deterministic input word for lane word `wordIndex` of a named input
/// (shared by the simulator and tests so both sides agree on unspecified
/// inputs). Word 0 reproduces the historical single-word synthesis; the
/// words of one input are consecutive draws of one name-and-seed-keyed
/// stream, so all 64 * laneWords lanes carry independent data.
uint64_t defaultInputWord(const std::string& name, uint64_t seed,
                          int wordIndex = 0);

}  // namespace sherlock::sim
