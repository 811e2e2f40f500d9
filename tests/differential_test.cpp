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
#include <set>

#include "cpu/cpu_model.h"
#include "dag_fuzz.h"
#include "support/bitvector.h"
#include "ir/evaluator.h"
#include "mapping/flow.h"
#include "mapping/program_analysis.h"
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
      ASSERT_NEAR(res.attributedNs(), res.latencyNs, 1e-9 * res.latencyNs);
      ASSERT_NEAR(res.attributedPj(), res.energyPj, 1e-9 * res.energyPj);
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
    copts.faults.map = &map;
    copts.faults.spareRows = 4;
    mapping::CompileResult compiled = mapping::compile(g, target, copts);

    verify::VerifyOptions vopts;
    vopts.faultMap = &map;
    vopts.spareRows = copts.faults.spareRows;
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
    ASSERT_NEAR(res.attributedNs(), res.latencyNs, 1e-9 * res.latencyNs);
    ASSERT_NEAR(res.attributedPj(), res.energyPj, 1e-9 * res.energyPj);
  }
}

// Multi-array differential level: the same fuzzed DAGs compiled onto
// targets of 16, 2 and 4 arrays on the shared bus, with per-array column
// caps tight enough to force genuine sharding (xfers at the cut edges),
// then statically verified — including TransferLegality and
// cross-array ValueEquivalence — and simulated at both lane widths
// against the packed reference. A second pass per target repeats the
// compile fault-aware against a dense fault map and checks guarded
// execution still reproduces the reference. Seed count:
// SHERLOCK_MULTI_ARRAY_FUZZ_SEEDS (total across 4 shards, default 200),
// range start SHERLOCK_MULTI_ARRAY_FUZZ_FIRST_SEED.
struct MultiArrayFuzzPoint {
  int numArrays;
  int maxColumnsPerArray;  // 0 = whole array
  uint64_t faultSeedSalt;  // offsets the guarded pass's fault-map seed
};

constexpr MultiArrayFuzzPoint kFuzzArrayCounts[] = {
    {16, 0, 17}, {2, 2, 18}, {4, 1, 34}};

void runMultiArraySeed(uint64_t seed, long& shardedRuns) {
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

  for (const MultiArrayFuzzPoint& point : kFuzzArrayCounts) {
    SCOPED_TRACE(strCat(point.numArrays, " arrays, cap ",
                        point.maxColumnsPerArray));
    isa::TargetSpec target = isa::TargetSpec::square(
        64, device::TechnologyParams::reRam(), spec.maxArity);
    target.numArrays = point.numArrays;

    mapping::CompileOptions copts;
    copts.strategy = mapping::Strategy::Optimized;
    copts.optimizer.maxColumnsPerArray = point.maxColumnsPerArray;
    mapping::CompileResult compiled;
    try {
      compiled = mapping::compile(g, target, copts);
    } catch (const MappingError&) {
      // The tight cap left fewer columns than the DAG needs clusters;
      // that seed/target point is genuinely infeasible, not a bug.
      continue;
    }
    // Independent clusters can shard without any cut; only an op operand
    // executing on another array obliges the code generator to move it.
    std::set<int> arraysUsed;
    bool cut = false;
    for (ir::NodeId v = g.firstId(); v < g.endId(); ++v) {
      if (!g.node(v).isOp()) continue;
      int arrayId = compiled.plan.opLocation[static_cast<size_t>(v)].arrayId;
      arraysUsed.insert(arrayId);
      for (ir::NodeId q : g.node(v).operands)
        cut |= g.node(q).isOp() &&
               compiled.plan.opLocation[static_cast<size_t>(q)].arrayId !=
                   arrayId;
    }
    if (arraysUsed.size() > 1) shardedRuns++;
    if (cut) {
      EXPECT_GT(mapping::analyzeProgram(compiled.program).xfers, 0)
          << "cut placement emitted no inter-array transfer";
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
      ASSERT_NEAR(res.attributedNs(), res.latencyNs, 1e-9 * res.latencyNs);
      ASSERT_NEAR(res.attributedPj(), res.energyPj, 1e-9 * res.energyPj);
    }

    // Fault-injected variant: dense persistent faults, spare-row repair,
    // guarded Monte-Carlo execution. XFER endpoints must avoid every
    // stuck cell (the verifier proves it; the simulator re-checks).
    device::FaultMapOptions fo;
    fo.seed = seed * 0x9e3779b9ULL + point.faultSeedSalt;
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
    ASSERT_NEAR(res.attributedNs(), res.latencyNs, 1e-9 * res.latencyNs);
    ASSERT_NEAR(res.attributedPj(), res.energyPj, 1e-9 * res.energyPj);
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

class MultiArrayShard : public ::testing::TestWithParam<int> {};

TEST_P(MultiArrayShard, ShardedProgramsAgreeAcrossArrayCounts) {
  const long perShard =
      (envLong("SHERLOCK_MULTI_ARRAY_FUZZ_SEEDS", 200) + 3) / 4;
  const long first = envLong("SHERLOCK_MULTI_ARRAY_FUZZ_FIRST_SEED", 1) +
                     GetParam() * perShard;
  const long last = first + perShard - 1;
  std::cout << "[multi-array-fuzz] shard " << GetParam() << ": seeds "
            << first << ".." << last
            << " (reproduce one: SHERLOCK_MULTI_ARRAY_FUZZ_SEEDS=1 "
               "SHERLOCK_MULTI_ARRAY_FUZZ_FIRST_SEED=<seed> "
               "./differential_test --gtest_filter='*MultiArrayShard*')\n";
  long shardedRuns = 0;
  for (long seed = first; seed <= last; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    runMultiArraySeed(static_cast<uint64_t>(seed), shardedRuns);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The caps must force real multi-array placements, or the shard tested
  // nothing beyond the single-array path.
  EXPECT_GT(shardedRuns, 0) << "no seed sharded across arrays";
}

INSTANTIATE_TEST_SUITE_P(MultiArrayFuzz, MultiArrayShard,
                         ::testing::Range(0, 4));

// Small-geometry level: the same fuzzed DAGs on targets of 4-16 rows and
// 16-64 columns, where columns fill up and codegen's full-column paths
// run (replica drops, flushes into a full column, eviction). ReRAM at
// MRA = the DAG's maximum arity, both strategies, without and with a
// fault map (density 0.02; 1 spare row below 8 rows, else 2). Every
// compile returns a program, which compile has verified, or throws
// MappingError. On the default seed range each (geometry, strategy,
// map)'s MappingError count is pinned, so a change that loses a compile
// fails here (and one that gains a compile updates the pin). Seed count:
// SHERLOCK_SMALL_FUZZ_SEEDS (default 100), range start
// SHERLOCK_SMALL_FUZZ_FIRST_SEED (default 1).
constexpr long kSmallFuzzSeeds = 100;

struct SmallGeometry {
  int rows, cols, arrays;
  /// MappingErrors on the default seeds, [naive, opt][no map, map].
  int mappingErrors[2][2];
};

constexpr SmallGeometry kSmallGeometries[] = {
    {4, 16, 1, {{79, 88}, {97, 97}}},  {4, 64, 1, {{38, 74}, {64, 71}}},
    {4, 64, 16, {{38, 74}, {23, 43}}}, {6, 32, 2, {{0, 4}, {32, 61}}},
    {8, 16, 2, {{0, 0}, {65, 81}}},    {16, 64, 2, {{1, 0}, {0, 0}}},
    {12, 32, 16, {{0, 0}, {0, 0}}}};

std::string geometryName(const SmallGeometry& geo) {
  return strCat(geo.rows, "x", geo.cols, "x", geo.arrays);
}

void PrintTo(const SmallGeometry& geo, std::ostream* os) {
  *os << geometryName(geo);
}

class SmallGeometryShard : public ::testing::TestWithParam<SmallGeometry> {};

TEST_P(SmallGeometryShard, EveryCompileVerifiesOrThrowsMappingError) {
  const SmallGeometry& geo = GetParam();
  const long seeds = envLong("SHERLOCK_SMALL_FUZZ_SEEDS", kSmallFuzzSeeds);
  const long first = envLong("SHERLOCK_SMALL_FUZZ_FIRST_SEED", 1);
  const long last = first + seeds - 1;
  const std::string name = geometryName(geo);
  std::cout << "[small-geometry-fuzz] " << name << ": seeds " << first
            << ".." << last
            << " (reproduce one: SHERLOCK_SMALL_FUZZ_SEEDS=1 "
               "SHERLOCK_SMALL_FUZZ_FIRST_SEED=<seed> ./differential_test "
               "--gtest_filter='*SmallGeometryShard*')\n";
  int errors[2][2] = {};
  for (long seed = first; seed <= last; ++seed) {
    workloads::RandomDagSpec spec = sampleDagSpec(static_cast<uint64_t>(seed));
    ir::Graph g = workloads::buildRandomDag(spec);
    isa::TargetSpec target = isa::TargetSpec::square(
        geo.cols, device::TechnologyParams::reRam(), spec.maxArity);
    target.geometry.rows = geo.rows;
    target.numArrays = geo.arrays;
    for (int opt = 0; opt < 2; ++opt)
      for (int faulty = 0; faulty < 2; ++faulty) {
        SCOPED_TRACE(strCat("seed ", seed, opt ? ", opt" : ", naive",
                            faulty ? ", fault map" : ""));
        mapping::FlowOptions options;
        options.strategy =
            opt ? mapping::Strategy::Optimized : mapping::Strategy::Naive;
        if (faulty) {
          options.faultDensity = 0.02;
          options.faultSeed = static_cast<uint64_t>(seed);
          options.spareRows = geo.rows < 8 ? 1 : 2;
        }
        try {
          mapping::FlowResult flow = mapping::compileFlow(g, target, options);
          EXPECT_FALSE(flow.compiled.program.instructions.empty());
        } catch (const MappingError&) {
          ++errors[opt][faulty];
        }
      }
  }
  std::cout << "[small-geometry-fuzz] " << name
            << ": MappingErrors naive " << errors[0][0] << "/"
            << errors[0][1] << ", opt " << errors[1][0] << "/"
            << errors[1][1] << " (no map/fault map)\n";
  if (seeds != kSmallFuzzSeeds || first != 1) return;
  for (int opt = 0; opt < 2; ++opt)
    for (int faulty = 0; faulty < 2; ++faulty)
      EXPECT_EQ(errors[opt][faulty], geo.mappingErrors[opt][faulty])
          << name << (opt ? " opt" : " naive")
          << (faulty ? " with a fault map" : " without a fault map");
}

INSTANTIATE_TEST_SUITE_P(
    SmallGeometryFuzz, SmallGeometryShard,
    ::testing::ValuesIn(kSmallGeometries),
    [](const ::testing::TestParamInfo<SmallGeometry>& info) {
      return geometryName(info.param);
    });

}  // namespace
}  // namespace sherlock::testing
