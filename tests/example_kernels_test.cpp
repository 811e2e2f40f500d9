// Pipeline tests over the shipped example kernels: every .sk file in
// examples/kernels/ must compile (both mappers), statically verify, and
// simulate with a clean output check — so the examples cannot rot as the
// compiler evolves. The kernel directory is baked in via the
// SHERLOCK_KERNEL_DIR compile definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lowering.h"
#include "mapping/compiler.h"
#include "sim/simulator.h"
#include "transforms/passes.h"
#include "verify/verifier.h"

namespace sherlock {
namespace {

std::vector<std::string> kernelFiles() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SHERLOCK_KERNEL_DIR))
    if (entry.path().extension() == ".sk")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ExampleKernels : public ::testing::TestWithParam<mapping::Strategy> {};

TEST_P(ExampleKernels, CompileVerifySimulate) {
  std::vector<std::string> files = kernelFiles();
  ASSERT_FALSE(files.empty()) << "no kernels in " << SHERLOCK_KERNEL_DIR;

  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    ir::Graph g = transforms::canonicalize(
        frontend::compileKernel(slurp(file)));
    EXPECT_GT(g.opCount(), 0u);
    ASSERT_FALSE(g.outputs().empty());

    isa::TargetSpec target =
        isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 2);
    mapping::CompileOptions copts;
    copts.strategy = GetParam();
    auto compiled = mapping::compile(g, target, copts);

    verify::VerifyResult vr =
        verify::verifyProgram(g, target, compiled.program);
    EXPECT_TRUE(vr.ok()) << vr.summary();

    sim::SimResult res = sim::simulate(g, target, compiled.program);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.latencyNs, 0.0);
    EXPECT_GT(res.energyPj, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothMappers, ExampleKernels,
                         ::testing::Values(mapping::Strategy::Naive,
                                           mapping::Strategy::Optimized),
                         [](const auto& info) {
                           return info.param == mapping::Strategy::Naive
                                      ? "Naive"
                                      : "Optimized";
                         });

}  // namespace
}  // namespace sherlock
