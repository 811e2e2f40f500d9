// Differential fuzz harness (the paper's correctness net, level 2): for a
// few hundred seeded random DAGs, compile with both mappers x both
// technologies x both array sizes, statically verify every program, and
// cross-check three independent executions of each DAG:
//
//   1. CIM simulator     — bit-accurate array/row-buffer execution
//   2. word evaluator    — 64-bit-slice reference (evaluateAllWords)
//   3. bulk evaluator    — BitVector lane-wise CPU software model
//
// The simulator itself enforces (1) == (2) when SimOptions::verify is on;
// this harness additionally checks (2) == (3) per lane and that the CPU
// baseline cost model accepts every DAG. Seed count and start are
// environment-tunable (see tests/dag_fuzz.h) so CI failures reproduce
// locally from the printed seed range.
#include <gtest/gtest.h>

#include <iostream>
#include <map>

#include "cpu/cpu_model.h"
#include "dag_fuzz.h"
#include "support/bitvector.h"
#include "ir/evaluator.h"
#include "sim/simulator.h"
#include "transforms/passes.h"
#include "verify/verifier.h"
#include "workloads/random_dag.h"

namespace sherlock::testing {
namespace {

constexpr int kFuzzLaneWidths[] = {1, 4};

void runSeed(uint64_t seed) {
  workloads::RandomDagSpec spec = sampleDagSpec(seed);
  ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));

  // Deterministic inputs, shared across all executions and lane widths:
  // lane word w of input `name` is defaultInputWord(name, seed, w), so
  // the laneWords=1 run's lanes are exactly the first 64 lanes of the
  // laneWords=4 run.
  constexpr int kMaxW = 4;
  std::map<std::string, uint64_t> words;                 // scalar path
  std::map<std::string, std::vector<uint64_t>> wide;     // packed path
  for (ir::NodeId id : g.inputNodes()) {
    const std::string& name = g.node(id).name;
    auto& v = wide[name];
    for (int w = 0; w < kMaxW; ++w)
      v.push_back(sim::defaultInputWord(name, seed, w));
    words[name] = v[0];
  }

  // Level 2b at each width: packed word evaluator vs lane-wise BitVector
  // evaluator on all 64 * W lanes.
  for (int W : kFuzzLaneWidths) {
    SCOPED_TRACE(strCat("evaluators, laneWords ", W));
    std::map<std::string, std::vector<uint64_t>> inputsW;
    ir::InputValues lanes;
    for (const auto& [name, v] : wide) {
      inputsW[name].assign(v.begin(), v.begin() + W);
      lanes[name] = BitVector::fromWords(v.data(), 64 * W);
    }
    std::vector<uint64_t> packed = ir::evaluateAllWordsPacked(g, inputsW, W);
    std::vector<BitVector> bulk = ir::evaluateOutputs(g, lanes);
    ASSERT_EQ(bulk.size(), g.outputs().size());
    for (size_t i = 0; i < g.outputs().size(); ++i) {
      const uint64_t* w =
          packed.data() + static_cast<size_t>(g.outputs()[i]) * W;
      for (size_t b = 0; b < static_cast<size_t>(64 * W); ++b)
        ASSERT_EQ(bulk[i].get(b), ((w[b / 64] >> (b % 64)) & 1) != 0)
            << "evaluator disagreement on output " << g.outputs()[i]
            << " lane " << b;
    }
  }

  // The legacy single-word evaluator must agree with lane word 0 of the
  // packed one (it is the scalar slice of the same reference).
  {
    std::vector<uint64_t> wordValues = ir::evaluateAllWords(g, words);
    std::map<std::string, std::vector<uint64_t>> inputs1;
    for (const auto& [name, v] : wide) inputs1[name].assign(v.begin(),
                                                            v.begin() + 1);
    std::vector<uint64_t> packed1 = ir::evaluateAllWordsPacked(g, inputs1, 1);
    ASSERT_EQ(wordValues, packed1);
  }

  // CPU baseline cost model accepts the DAG.
  cpu::CpuResult cpuCost = cpu::estimateCpu(g, 64);
  ASSERT_GT(cpuCost.latencyNs, 0.0);
  ASSERT_GT(cpuCost.energyPj, 0.0);
  ASSERT_GT(cpuCost.wordOps, 0);

  for (const FuzzConfig& config : fuzzConfigs()) {
    SCOPED_TRACE(config.name());
    isa::TargetSpec target = fuzzTarget(config, spec.maxArity);
    mapping::CompileOptions copts;
    copts.strategy = config.strategy;
    // Verified explicitly below so a failure carries the full violation
    // report instead of the facade's first-violation exception.
    copts.verify = false;
    mapping::CompileResult compiled = mapping::compile(g, target, copts);

    // Level 1: static verification, including DAG equivalence.
    verify::VerifyResult vr = verify::verifyProgram(g, target,
                                                    compiled.program);
    ASSERT_TRUE(vr.ok()) << vr.summary();

    // Level 2a at each width: simulator vs packed word evaluator
    // (enforced inside simulate when verify is on). laneWords=1 feeds
    // the scalar `inputs` map, laneWords=4 the `wideInputs` map, so both
    // input-resolution paths stay covered.
    for (int W : kFuzzLaneWidths) {
      SCOPED_TRACE(strCat("laneWords ", W));
      sim::SimOptions sopts;
      sopts.laneWords = W;
      if (W == 1) {
        sopts.inputs = words;
      } else {
        for (const auto& [name, v] : wide)
          sopts.wideInputs[name].assign(v.begin(), v.begin() + W);
      }
      sopts.staticVerify = false;  // already verified above
      sim::SimResult res = sim::simulate(g, target, compiled.program, sopts);
      ASSERT_TRUE(res.verified);
      ASSERT_GT(res.latencyNs, 0.0);
    }
  }
}

// Fault-injection differential level: the same fuzzed DAGs compiled
// fault-aware against a dense persistent fault map (stuck + weak cells,
// spare-row repair) must still verify statically — including the
// FaultAvoidance rule — and reproduce the reference outputs under
// guarded Monte-Carlo execution on every config. Seed count comes from
// SHERLOCK_FAULT_FUZZ_SEEDS (total across 4 shards, default 60) with
// SHERLOCK_FAULT_FUZZ_FIRST_SEED as the range start, mirroring the
// fault-free harness's reproduction contract.
void runFaultSeed(uint64_t seed) {
  workloads::RandomDagSpec spec = sampleDagSpec(seed);
  ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));

  std::map<std::string, uint64_t> words;
  for (ir::NodeId id : g.inputNodes()) {
    const std::string& name = g.node(id).name;
    words[name] = sim::defaultInputWord(name, seed);
  }

  for (const FuzzConfig& config : fuzzConfigs()) {
    SCOPED_TRACE(config.name());
    isa::TargetSpec target = fuzzTarget(config, spec.maxArity);

    device::FaultMapOptions fo;
    fo.seed = seed * 0x9e3779b9ULL + config.dim;
    fo.stuckDensity = 0.02;
    fo.weakDensity = 0.01;
    device::FaultMap map = device::FaultMap::generate(
        target.numArrays, target.rows(), target.cols(), fo);

    mapping::CompileOptions copts;
    copts.strategy = config.strategy;
    copts.verify = false;  // verified explicitly with the map below
    copts.faults.map = &map;
    copts.faults.spareRows = 4;
    mapping::CompileResult compiled = mapping::compile(g, target, copts);

    verify::VerifyOptions vopts;
    vopts.faultMap = &map;
    verify::VerifyResult vr =
        verify::verifyProgram(g, target, compiled.program, vopts);
    ASSERT_TRUE(vr.ok()) << vr.summary();

    sim::SimOptions sopts;
    sopts.inputs = words;
    sopts.staticVerify = false;  // already verified above
    sopts.faultMap = &map;
    sopts.injectFaults = true;
    sopts.guardedExecution = true;
    sopts.faultSeed = seed;
    sim::SimResult res = sim::simulate(g, target, compiled.program, sopts);
    ASSERT_EQ(res.corruptedLanes(), 0)
        << "guarded execution corrupted lanes (injected "
        << res.injectedFaults << " faults, " << res.retriedOps
        << " retries, " << res.degradedOps << " degraded ops)";
    ASSERT_TRUE(res.verified);
    ASSERT_EQ(res.stuckCellReads, 0)
        << "fault-aware placement let a stuck cell be sensed";
  }
}

// Multi-array differential level: the same fuzzed DAGs compiled onto
// 1x1, 1x2 and 2x2 meshes with per-array column caps tight enough to
// force genuine sharding (transfers at the cut edges), then statically
// verified — including TransferLegality and cross-array ValueEquivalence
// — and simulated at both lane widths against the packed reference. A
// second pass per grid repeats the compile fault-aware against a dense
// fault map and checks guarded execution still reproduces the reference.
// Seed count: SHERLOCK_GRID_FUZZ_SEEDS (total across 4 shards, default
// 200), range start SHERLOCK_GRID_FUZZ_FIRST_SEED.
struct GridFuzzPoint {
  int rows;
  int cols;
  int maxColumnsPerArray;  // 0 = whole array
};

constexpr GridFuzzPoint kFuzzGrids[] = {{1, 1, 0}, {1, 2, 2}, {2, 2, 1}};

void runGridSeed(uint64_t seed, long& shardedRuns) {
  workloads::RandomDagSpec spec = sampleDagSpec(seed);
  ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));

  constexpr int kMaxW = 4;
  std::map<std::string, uint64_t> words;
  std::map<std::string, std::vector<uint64_t>> wide;
  for (ir::NodeId id : g.inputNodes()) {
    const std::string& name = g.node(id).name;
    auto& v = wide[name];
    for (int w = 0; w < kMaxW; ++w)
      v.push_back(sim::defaultInputWord(name, seed, w));
    words[name] = v[0];
  }

  for (const GridFuzzPoint& gp : kFuzzGrids) {
    SCOPED_TRACE(strCat("grid ", gp.rows, "x", gp.cols, " cap ",
                        gp.maxColumnsPerArray));
    isa::TargetSpec target = isa::TargetSpec::square(
        64, device::TechnologyParams::reRam(), spec.maxArity);
    if (gp.rows * gp.cols > 1)
      target = target.withGrid(arraymodel::GridConfig{gp.rows, gp.cols});

    mapping::CompileOptions copts;
    copts.strategy = mapping::Strategy::Optimized;
    copts.verify = false;  // verified explicitly below
    copts.optimizer.maxColumnsPerArray = gp.maxColumnsPerArray;
    mapping::CompileResult compiled;
    try {
      compiled = mapping::compile(g, target, copts);
    } catch (const MappingError&) {
      // The tight cap left fewer columns than the DAG needs clusters;
      // that seed/grid point is genuinely infeasible, not a bug.
      continue;
    }
    if (!compiled.partition.singleArray) {
      shardedRuns++;
      // Independent clusters can shard without any cut; only a real cut
      // obliges the code generator to move values across the mesh.
      if (!compiled.partition.transfers.empty()) {
        EXPECT_GT(
            compiled.program.stats.xfers + compiled.program.stats.moves, 0u)
            << "cut placement emitted no inter-array movement";
      }
    }

    verify::VerifyResult vr =
        verify::verifyProgram(g, target, compiled.program);
    ASSERT_TRUE(vr.ok()) << vr.summary();

    for (int W : kFuzzLaneWidths) {
      SCOPED_TRACE(strCat("laneWords ", W));
      sim::SimOptions sopts;
      sopts.laneWords = W;
      if (W == 1) {
        sopts.inputs = words;
      } else {
        for (const auto& [name, v] : wide)
          sopts.wideInputs[name].assign(v.begin(), v.begin() + W);
      }
      sopts.staticVerify = false;  // already verified above
      sim::SimResult res = sim::simulate(g, target, compiled.program, sopts);
      ASSERT_TRUE(res.verified);
      ASSERT_GT(res.latencyNs, 0.0);
    }

    // Fault-injected variant: dense persistent faults, spare-row repair,
    // guarded Monte-Carlo execution. XFER endpoints must avoid every
    // stuck cell (the verifier proves it; the simulator re-checks).
    device::FaultMapOptions fo;
    fo.seed = seed * 0x9e3779b9ULL + gp.rows * 16 + gp.cols;
    fo.stuckDensity = 0.02;
    fo.weakDensity = 0.01;
    device::FaultMap map = device::FaultMap::generate(
        target.numArrays, target.rows(), target.cols(), fo);
    mapping::CompileOptions fcopts = copts;
    fcopts.faults.map = &map;
    fcopts.faults.spareRows = 4;
    mapping::CompileResult faulted;
    try {
      faulted = mapping::compile(g, target, fcopts);
    } catch (const MappingError&) {
      continue;  // fault filtering shrank the budget below feasibility
    }
    verify::VerifyOptions vopts;
    vopts.faultMap = &map;
    vopts.spareRows = 4;
    verify::VerifyResult fvr =
        verify::verifyProgram(g, target, faulted.program, vopts);
    ASSERT_TRUE(fvr.ok()) << fvr.summary();

    sim::SimOptions sopts;
    sopts.inputs = words;
    sopts.staticVerify = false;
    sopts.faultMap = &map;
    sopts.injectFaults = true;
    sopts.guardedExecution = true;
    sopts.faultSeed = seed;
    sim::SimResult res = sim::simulate(g, target, faulted.program, sopts);
    ASSERT_EQ(res.corruptedLanes(), 0)
        << "guarded multi-array execution corrupted lanes (injected "
        << res.injectedFaults << " faults)";
    ASSERT_TRUE(res.verified);
    ASSERT_EQ(res.stuckCellReads, 0)
        << "fault-aware placement let a stuck cell be sensed";
  }
}

class DifferentialShard : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialShard, RandomDagsAgreeAcrossBackends) {
  const long perShard = fuzzSeedsPerShard();
  const long first = fuzzFirstSeed() + GetParam() * perShard;
  const long last = first + perShard - 1;
  std::cout << "[fuzz] shard " << GetParam() << ": seeds " << first << ".."
            << last
            << " (reproduce one: SHERLOCK_FUZZ_SEEDS=1 "
               "SHERLOCK_FUZZ_FIRST_SEED=<seed> ./differential_test)\n";
  for (long seed = first; seed <= last; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    runSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialShard, ::testing::Range(0, 4));

class FaultShard : public ::testing::TestWithParam<int> {};

TEST_P(FaultShard, GuardedExecutionSurvivesFaultyArrays) {
  const long perShard = (envLong("SHERLOCK_FAULT_FUZZ_SEEDS", 60) + 3) / 4;
  const long first = envLong("SHERLOCK_FAULT_FUZZ_FIRST_SEED", 1) +
                     GetParam() * perShard;
  const long last = first + perShard - 1;
  std::cout << "[fault-fuzz] shard " << GetParam() << ": seeds " << first
            << ".." << last
            << " (reproduce one: SHERLOCK_FAULT_FUZZ_SEEDS=1 "
               "SHERLOCK_FAULT_FUZZ_FIRST_SEED=<seed> ./differential_test "
               "--gtest_filter='*FaultShard*')\n";
  for (long seed = first; seed <= last; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    runFaultSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(FaultFuzz, FaultShard, ::testing::Range(0, 4));

class GridShard : public ::testing::TestWithParam<int> {};

TEST_P(GridShard, ShardedProgramsAgreeAcrossGrids) {
  const long perShard = (envLong("SHERLOCK_GRID_FUZZ_SEEDS", 200) + 3) / 4;
  const long first = envLong("SHERLOCK_GRID_FUZZ_FIRST_SEED", 1) +
                     GetParam() * perShard;
  const long last = first + perShard - 1;
  std::cout << "[grid-fuzz] shard " << GetParam() << ": seeds " << first
            << ".." << last
            << " (reproduce one: SHERLOCK_GRID_FUZZ_SEEDS=1 "
               "SHERLOCK_GRID_FUZZ_FIRST_SEED=<seed> ./differential_test "
               "--gtest_filter='*GridShard*')\n";
  long shardedRuns = 0;
  for (long seed = first; seed <= last; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    runGridSeed(static_cast<uint64_t>(seed), shardedRuns);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The caps must force real multi-array placements, or the shard tested
  // nothing beyond the flat path.
  EXPECT_GT(shardedRuns, 0) << "no seed sharded across arrays";
}

INSTANTIATE_TEST_SUITE_P(GridFuzz, GridShard, ::testing::Range(0, 4));

}  // namespace
}  // namespace sherlock::testing
