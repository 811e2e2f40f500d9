// Integration tests: the full Sherlock pipeline (workload DAG -> transforms
// -> mapping -> codegen -> verifying simulation) across mappers,
// technologies, array sizes and MRA configurations. Every run is checked
// bit-exactly against the reference evaluator by the simulator.
#include <gtest/gtest.h>

#include "ir/analysis.h"
#include "mapping/flow.h"
#include "sim/simulator.h"
#include "transforms/nand_lowering.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock {
namespace {

struct PipelineCase {
  const char* name;
  mapping::Strategy strategy;
  device::Technology tech;
  int arrayDim;
  int mra;  // max activated rows
};

std::string caseName(const testing::TestParamInfo<PipelineCase>& info) {
  const PipelineCase& c = info.param;
  return strCat(c.name, "_",
                c.strategy == mapping::Strategy::Naive ? "naive" : "opt",
                "_", c.tech == device::Technology::ReRam ? "reram" : "stt",
                "_", c.arrayDim, "_mra", c.mra);
}

class PipelineTest : public testing::TestWithParam<PipelineCase> {
 protected:
  void runPipeline(const ir::Graph& raw) {
    const PipelineCase& c = GetParam();
    isa::TargetSpec target = isa::TargetSpec::square(
        c.arrayDim, device::TechnologyParams::forTechnology(c.tech), c.mra);
    mapping::FlowOptions options;
    options.strategy = c.strategy;
    auto compiled = mapping::compileFlow(raw, target, options);
    auto result = sim::simulate(compiled.graph, target,
                                compiled.compiled.program);
    EXPECT_TRUE(result.verified);
    EXPECT_GT(result.latencyNs, 0.0);
    EXPECT_GT(result.energyPj, 0.0);
    EXPECT_GT(result.pApp, 0.0);
    EXPECT_LT(result.pApp, 1.0);
  }
};

TEST_P(PipelineTest, Bitweaving) {
  runPipeline(workloads::buildBitweaving({16}));
}

TEST_P(PipelineTest, Sobel) { runPipeline(workloads::buildSobel({})); }

TEST_P(PipelineTest, AesOneRound) {
  runPipeline(workloads::buildAes({1}));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineTest,
    testing::Values(
        PipelineCase{"p", mapping::Strategy::Naive,
                     device::Technology::ReRam, 512, 2},
        PipelineCase{"p", mapping::Strategy::Naive,
                     device::Technology::ReRam, 512, 4},
        PipelineCase{"p", mapping::Strategy::Naive,
                     device::Technology::SttMram, 1024, 2},
        PipelineCase{"p", mapping::Strategy::Optimized,
                     device::Technology::ReRam, 512, 2},
        PipelineCase{"p", mapping::Strategy::Optimized,
                     device::Technology::ReRam, 512, 4},
        PipelineCase{"p", mapping::Strategy::Optimized,
                     device::Technology::SttMram, 1024, 2},
        PipelineCase{"p", mapping::Strategy::Optimized,
                     device::Technology::SttMram, 256, 4}),
    caseName);

// Property sweep: random DAGs of assorted shapes must compile and verify
// under both mappers.
struct RandomCase {
  uint64_t seed;
  int ops;
  int maxArity;
  double locality;
};

class RandomPipelineTest : public testing::TestWithParam<RandomCase> {};

TEST_P(RandomPipelineTest, BothMappersVerify) {
  const RandomCase& rc = GetParam();
  workloads::RandomDagSpec spec;
  spec.seed = rc.seed;
  spec.ops = rc.ops;
  spec.maxArity = rc.maxArity;
  spec.locality = rc.locality;
  spec.inputs = 12;
  ir::Graph g = workloads::buildRandomDag(spec);

  isa::TargetSpec target = isa::TargetSpec::square(
      128, device::TechnologyParams::reRam(), spec.maxArity);

  for (auto strategy :
       {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
    mapping::CompileOptions opts;
    opts.strategy = strategy;
    auto compiled = mapping::compile(g, target, opts);
    auto result = sim::simulate(g, target, compiled.program);
    EXPECT_TRUE(result.verified)
        << "seed=" << rc.seed << " strategy="
        << (strategy == mapping::Strategy::Naive ? "naive" : "opt");
  }
}

std::vector<RandomCase> randomCases() {
  std::vector<RandomCase> cases;
  for (uint64_t seed = 1; seed <= 12; ++seed)
    cases.push_back({seed, 150 + static_cast<int>(seed) * 37,
                     2 + static_cast<int>(seed % 3),
                     seed % 2 ? 1.0 : 0.3});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineTest,
                         testing::ValuesIn(randomCases()));

// The NAND lowering flow (STT-MRAM) must also run end to end.
TEST(PipelineNand, BitweavingLoweredVerifies) {
  isa::TargetSpec target =
      isa::TargetSpec::square(512, device::TechnologyParams::sttMram(), 2);
  mapping::FlowOptions options;
  options.nandLower = true;
  auto compiled =
      mapping::compileFlow(workloads::buildBitweaving({12}), target, options);
  EXPECT_TRUE(transforms::isNandOnly(compiled.graph));
  auto result =
      sim::simulate(compiled.graph, target, compiled.compiled.program);
  EXPECT_TRUE(result.verified);
}

// MRA substitution sweep on the full pipeline: every budget must verify.
TEST(PipelineMra, SubstitutionBudgetSweepVerifies) {
  ir::Graph sobel = workloads::buildSobel({});
  isa::TargetSpec target =
      isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 6);
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    mapping::FlowOptions options;
    options.fraction = fraction;
    auto compiled = mapping::compileFlow(sobel, target, options);
    auto result =
        sim::simulate(compiled.graph, target, compiled.compiled.program);
    EXPECT_TRUE(result.verified) << "fraction " << fraction;
  }
}

// The flow checks its options before it allocates anything, and the
// error names the bound.
TEST(PipelineFlow, OptionsOutsideTheirBoundsAreRejected) {
  ir::Graph g = workloads::buildBitweaving({4});
  isa::TargetSpec target =
      isa::TargetSpec::square(64, device::TechnologyParams::reRam(), 4);
  auto expectRejected = [&](const isa::TargetSpec& t,
                            const mapping::FlowOptions& options,
                            const std::string& bound) {
    try {
      mapping::compileFlow(g, t, options);
      ADD_FAILURE() << "accepted; expected the bound " << bound;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(bound), std::string::npos)
          << e.what();
    }
  };
  expectRejected(
      isa::TargetSpec::square(4097, device::TechnologyParams::reRam(), 4),
      {}, "[1, 4096]");
  mapping::FlowOptions fraction;
  fraction.fraction = 1.5;
  expectRejected(target, fraction, "[0, 1]");
  mapping::FlowOptions density;
  density.faultDensity = 0.7;
  expectRejected(target, density, "[0, 2/3]");
  mapping::FlowOptions spares;
  spares.spareRows = 64;
  expectRejected(target, spares, "[0, 64)");

  mapping::FlowOptions edges;
  edges.faultDensity = 2.0 / 3.0;
  edges.spareRows = 63;
  EXPECT_NO_THROW(mapping::faultMapFor(target, edges));
}

}  // namespace
}  // namespace sherlock
