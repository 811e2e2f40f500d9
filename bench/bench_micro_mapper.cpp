// Micro-benchmarks (google-benchmark): compile-time scalability of the
// Sherlock pipeline stages — b-level analysis, canonicalization, node
// substitution, clustering, both mappers, code generation, verification,
// simulation and full compilation — on random DAGs of growing size, plus
// building the AES-128 DAG, verification of one small kernel, row-buffer
// shifts across array sizes, and the device layer's fault maps (drawing
// one and counting its usable cells per column) across array sizes.
#include <benchmark/benchmark.h>

#include <chrono>

#include "frontend/lowering.h"
#include "ir/analysis.h"
#include "mapping/compiler.h"
#include "sim/simulator.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "verify/verifier.h"
#include "workloads/aes.h"
#include "workloads/random_dag.h"

using namespace sherlock;

namespace {

ir::Graph dagOfSize(int ops) {
  workloads::RandomDagSpec spec;
  spec.inputs = std::max(8, ops / 16);
  spec.ops = ops;
  spec.maxArity = 3;
  spec.locality = 0.4;
  spec.seed = 1234;
  return workloads::buildRandomDag(spec);
}

isa::TargetSpec targetFor(const ir::Graph& g) {
  // Generous target so every size fits.
  isa::TargetSpec t =
      isa::TargetSpec::square(512, device::TechnologyParams::reRam(), 3);
  t.numArrays = 1 + static_cast<int>(g.valueCount()) / (512 * 400);
  return t;
}

void BM_BLevels(benchmark::State& state) {
  ir::Graph g = dagOfSize(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(ir::bLevels(g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BLevels)->Range(256, 16384)->Complexity();

void BM_Canonicalize(benchmark::State& state) {
  ir::Graph g = dagOfSize(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(transforms::canonicalize(g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Canonicalize)->Range(256, 16384)->Complexity();

void BM_Substitution(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  transforms::SubstitutionOptions opt;
  opt.maxOperands = 4;
  for (auto _ : state)
    benchmark::DoNotOptimize(transforms::substituteNodes(g, opt));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Substitution)->Range(256, 16384)->Complexity();

/// Builds the AES-128 DAG of range(0) rounds, as paper-batch's set-up
/// does at 10: every request, hit or new node, goes through the graph's
/// hash-consing index.
void BM_BuildAes(benchmark::State& state) {
  workloads::AesSpec spec;
  spec.rounds = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(workloads::buildAes(spec));
}
BENCHMARK(BM_BuildAes)->Arg(10)->Unit(benchmark::kMillisecond);

/// 16 arrays of dim x dim cells, 1% stuck + 0.5% weak: the fault map of
/// the faulty-guarded workload at dim 512.
device::FaultMapOptions faultOptions() {
  device::FaultMapOptions o;
  o.stuckDensity = 0.01;
  o.weakDensity = 0.005;
  return o;
}
constexpr int kFaultArrays = 16;

void BM_FaultMapGenerate(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        device::FaultMap::generate(kFaultArrays, dim, dim, faultOptions()));
  state.SetItemsProcessed(state.iterations() * kFaultArrays * dim * dim);
}
BENCHMARK(BM_FaultMapGenerate)
    ->Range(256, 1024)
    ->Unit(benchmark::kMillisecond);

/// Both mappers' planning step: usable cells per column of every array,
/// below 16 spare rows.
void BM_UsablePlanningCells(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  isa::TargetSpec target =
      isa::TargetSpec::square(dim, device::TechnologyParams::sttMram(), 2);
  target.numArrays = kFaultArrays;
  device::FaultMap map =
      device::FaultMap::generate(kFaultArrays, dim, dim, faultOptions());
  mapping::FaultPolicy faults{&map, 16};
  for (auto _ : state)
    for (int arrayId = 0; arrayId < kFaultArrays; ++arrayId)
      benchmark::DoNotOptimize(
          mapping::usablePlanningCells(target, faults, arrayId));
}
BENCHMARK(BM_UsablePlanningCells)
    ->Range(256, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_MapNaive(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  isa::TargetSpec t = targetFor(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mapping::mapNaive(g, t));
}
BENCHMARK(BM_MapNaive)->Range(256, 16384);

void BM_MapOptimized(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  isa::TargetSpec t = targetFor(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mapping::mapOptimized(g, t));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MapOptimized)->Range(256, 16384)->Complexity();

/// Generates code for the optimized plan once per iteration; the plan is
/// computed once, outside the timed loop. N is the emitted instruction
/// count, so the fit is the cost per instruction.
void BM_GenerateCode(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  isa::TargetSpec t = targetFor(g);
  mapping::PlacementPlan plan = mapping::mapOptimized(g, t).plan;
  // The defaults are the optimized pairing: merging, lazy write-back and
  // reuse of moved copies.
  mapping::CodegenOptions options;
  int64_t instructions = 0;
  for (auto _ : state) {
    mapping::Program program = mapping::generateCode(g, t, plan, options);
    instructions = static_cast<int64_t>(program.instructions.size());
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(state.iterations() * instructions);
  state.SetComplexityN(instructions);
}
BENCHMARK(BM_GenerateCode)->Range(256, 16384)->Complexity();

/// Verifies the optimized program once per iteration; N is its
/// instruction count, so the fit is the cost per verified instruction.
void verifyLoop(benchmark::State& state, const ir::Graph& g,
                const isa::TargetSpec& t, const mapping::Program& program) {
  for (auto _ : state)
    benchmark::DoNotOptimize(verify::verifyProgram(g, t, program));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(program.instructions.size()));
}

void BM_VerifyProgram(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  isa::TargetSpec t = targetFor(g);
  mapping::Program program = mapping::compile(g, t).program;
  verifyLoop(state, g, t, program);
  state.SetComplexityN(static_cast<int64_t>(program.instructions.size()));
}
BENCHMARK(BM_VerifyProgram)->Range(256, 16384)->Complexity();

// examples/kernels/parity_check.sk, inlined so the bench needs no file.
constexpr const char* kParityCheck = R"(
input w[16];
input p;
output error;
bit acc = 0;
for (i = 0; i < 16; i = i + 1) {
  acc = acc ^ w[i];
}
error = acc ^ p;
)";

/// A small kernel on a square ReRAM array of side range(0): the verifier
/// should pay for the kernel, not for the array.
void BM_VerifySmallKernel(benchmark::State& state) {
  ir::Graph g =
      transforms::canonicalize(frontend::compileKernel(kParityCheck));
  isa::TargetSpec t = isa::TargetSpec::square(
      static_cast<int>(state.range(0)), device::TechnologyParams::reRam(), 2);
  mapping::Program program = mapping::compile(g, t).program;
  verifyLoop(state, g, t, program);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VerifySmallKernel)->Arg(256)->Arg(1024)->Complexity();

/// Simulates the optimized program once per iteration; N is its
/// instruction count, so the fit is the cost per simulated instruction.
/// Static verification is off: BM_VerifyProgram times it.
void BM_SimulateProgram(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  isa::TargetSpec t = targetFor(g);
  mapping::Program program = mapping::compile(g, t).program;
  sim::SimOptions options;
  options.staticVerify = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(g, t, program, options));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(program.instructions.size()));
  state.SetComplexityN(static_cast<int64_t>(program.instructions.size()));
}
BENCHMARK(BM_SimulateProgram)->Range(256, 16384)->Complexity();

/// Row-buffer shifts with every column of a square ReRAM array of side
/// range(0) latched: the time of a shift should not depend on the width.
/// Each iteration simulates the fill program alone and the fill program
/// followed by the shifts; the reported time is the difference.
void BM_SimulateShifts(benchmark::State& state) {
  constexpr int kShifts = 200000;
  const int cols = static_cast<int>(state.range(0));
  isa::TargetSpec t =
      isa::TargetSpec::square(cols, device::TechnologyParams::reRam(), 2);
  ir::Graph g;
  ir::NodeId a = g.addInput("a");
  g.markOutput(a);
  std::vector<int> all(static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) all[static_cast<size_t>(c)] = c;
  auto program = [&](int shifts) {
    mapping::Program p;
    p.instructions.push_back(isa::makeWrite(0, all, 0));
    p.hostWriteValues[0].assign(all.size(), a);
    p.instructions.push_back(isa::makePlainRead(0, all, 0));
    for (int i = 0; i < shifts; ++i)
      p.instructions.push_back(
          isa::makeShift(0, isa::ShiftDirection::Left, 1));
    p.instructions.push_back(isa::makeWrite(0, all, 1));
    p.outputCells[a] = {0, 0, 1};
    return p;
  };
  const mapping::Program fill = program(0);
  const mapping::Program shifted = program(kShifts);
  sim::SimOptions options;
  options.staticVerify = false;
  using Clock = std::chrono::steady_clock;
  auto seconds = [&](const mapping::Program& p) {
    auto start = Clock::now();
    benchmark::DoNotOptimize(sim::simulate(g, t, p, options));
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (auto _ : state) {
    double base = seconds(fill);
    state.SetIterationTime(std::max(0.0, seconds(shifted) - base));
  }
  state.SetItemsProcessed(state.iterations() * kShifts);
  state.SetComplexityN(cols);
}
BENCHMARK(BM_SimulateShifts)
    ->Arg(256)
    ->Arg(1024)
    ->UseManualTime()
    ->Complexity();

void BM_CompileOptimizedEndToEnd(benchmark::State& state) {
  ir::Graph g = transforms::canonicalize(
      dagOfSize(static_cast<int>(state.range(0))));
  isa::TargetSpec t = targetFor(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mapping::compile(g, t));
}
BENCHMARK(BM_CompileOptimizedEndToEnd)->Range(256, 4096);

}  // namespace

BENCHMARK_MAIN();
