// Golden-output gate: a digest of the emitted assembly for the paper's
// three kernels and the shipped example kernels, per mapping strategy,
// array size / MRA, technology flow and DAG pipeline (the default one,
// or -O's inverter folding). Refactors that must keep every program
// byte-identical (the IR builder, codegen's data structures) keep this
// test green. A second table pins every simulated number of the same
// programs, plus two fault-tolerant runs, to the last bit: refactors of
// the simulator keep it green. A change that moves a digest on purpose
// regenerates the tables and explains the difference:
//
//   SHERLOCK_GOLDEN_PRINT=1 ./golden_test   # prints the current tables
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lowering.h"
#include "ir/serialize.h"
#include "isa/instruction.h"
#include "mapping/flow.h"
#include "sim/simulator.h"
#include "transforms/substitution.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/sobel.h"

namespace sherlock {
namespace {

struct Golden {
  const char* config;
  uint64_t digest;
};

// clang-format off
const Golden kGolden[] = {
{"Bitweaving reram-1024-mra2 naive", 0x92e66b8b4eeb4c6cULL},
  {"Bitweaving reram-1024-mra2 opt", 0xba6f4bcea4e6792bULL},
  {"Bitweaving reram-512-mra4 naive", 0xce71730bf308a524ULL},
  {"Bitweaving reram-512-mra4 opt", 0x68eda16f8674b9fdULL},
  {"Bitweaving stt-512-nand naive", 0xd55cf3e6bee9b03dULL},
  {"Bitweaving stt-512-nand opt", 0x578f947ae2bb920cULL},
  {"Bitweaving reram-1024-mra2-O naive", 0x92e66b8b4eeb4c6cULL},
  {"Bitweaving reram-1024-mra2-O opt", 0xba6f4bcea4e6792bULL},
  {"Bitweaving reram-512-mra4-O naive", 0xce71730bf308a524ULL},
  {"Bitweaving reram-512-mra4-O opt", 0x68eda16f8674b9fdULL},
  {"Sobel reram-1024-mra2 naive", 0x32101829d39b1f8cULL},
  {"Sobel reram-1024-mra2 opt", 0x2bd7d6767537393dULL},
  {"Sobel reram-512-mra4 naive", 0xcd4f29e756ba739cULL},
  {"Sobel reram-512-mra4 opt", 0xbfcfa608c9008869ULL},
  {"Sobel stt-512-nand naive", 0x80cdee7cb470daefULL},
  {"Sobel stt-512-nand opt", 0xb2fbdb1c05b717a0ULL},
  {"Sobel reram-1024-mra2-O naive", 0x9d6ca9bcb0e0fec5ULL},
  {"Sobel reram-1024-mra2-O opt", 0x11943ac5a0c998a8ULL},
  {"Sobel reram-512-mra4-O naive", 0x81535163b4ee2900ULL},
  {"Sobel reram-512-mra4-O opt", 0x40fc49efb7e206f0ULL},
  {"AES reram-1024-mra2 naive", 0x6e60afeb4e3f6af1ULL},
  {"AES reram-1024-mra2 opt", 0x01f5b60f7ed563e6ULL},
  {"AES reram-512-mra4 naive", 0xfe775104bb259d31ULL},
  {"AES reram-512-mra4 opt", 0x41269826e07e6a7aULL},
  {"AES stt-512-nand naive", 0xa0edaf49f8883daaULL},
  {"AES stt-512-nand opt", 0xe987af86c6eb2bd8ULL},
  {"AES reram-1024-mra2-O naive", 0x0007af54e73c5bb0ULL},
  {"AES reram-1024-mra2-O opt", 0xdcaaa3db2e119509ULL},
  {"AES reram-512-mra4-O naive", 0x066f83190900e9cdULL},
  {"AES reram-512-mra4-O opt", 0xf0824470eac6225bULL},
  {"bitweaving_between reram-1024-mra2 naive", 0x0174256340b8152eULL},
  {"bitweaving_between reram-1024-mra2 opt", 0xb8131aa74ed23bfdULL},
  {"bitweaving_between reram-512-mra4 naive", 0x263c26674b74055bULL},
  {"bitweaving_between reram-512-mra4 opt", 0x129896aabbe5e5ccULL},
  {"bitweaving_between stt-512-nand naive", 0x392210c33a58cb94ULL},
  {"bitweaving_between stt-512-nand opt", 0x15603523af2aadd5ULL},
  {"bitweaving_between reram-1024-mra2-O naive", 0xfa5e82d643c1b39bULL},
  {"bitweaving_between reram-1024-mra2-O opt", 0x534751a3cc064a55ULL},
  {"bitweaving_between reram-512-mra4-O naive", 0xa588b5eb2e554aa7ULL},
  {"bitweaving_between reram-512-mra4-O opt", 0x1ecc87f5cfd7ca3bULL},
  {"parity_check reram-1024-mra2 naive", 0xc1cc1c7d1d23dd50ULL},
  {"parity_check reram-1024-mra2 opt", 0xd01bcb0c8f5b39daULL},
  {"parity_check reram-512-mra4 naive", 0x738c70efb32fb8bcULL},
  {"parity_check reram-512-mra4 opt", 0x30f59401b41f5ff6ULL},
  {"parity_check stt-512-nand naive", 0xda7f703eec00ce30ULL},
  {"parity_check stt-512-nand opt", 0x6e6c5e190a20dfcaULL},
  {"parity_check reram-1024-mra2-O naive", 0xc1cc1c7d1d23dd50ULL},
  {"parity_check reram-1024-mra2-O opt", 0xd01bcb0c8f5b39daULL},
  {"parity_check reram-512-mra4-O naive", 0x738c70efb32fb8bcULL},
  {"parity_check reram-512-mra4-O opt", 0x30f59401b41f5ff6ULL},
  {"popcount_threshold reram-1024-mra2 naive", 0xb71ebf45675bb1e1ULL},
  {"popcount_threshold reram-1024-mra2 opt", 0x81831f4bbc67a42bULL},
  {"popcount_threshold reram-512-mra4 naive", 0xb71ebf45675bb1e1ULL},
  {"popcount_threshold reram-512-mra4 opt", 0x81831f4bbc67a42bULL},
  {"popcount_threshold stt-512-nand naive", 0x720b7f365c349ce4ULL},
  {"popcount_threshold stt-512-nand opt", 0xd9a264a669fbe419ULL},
  {"popcount_threshold reram-1024-mra2-O naive", 0xb71ebf45675bb1e1ULL},
  {"popcount_threshold reram-1024-mra2-O opt", 0x81831f4bbc67a42bULL},
  {"popcount_threshold reram-512-mra4-O naive", 0xb71ebf45675bb1e1ULL},
  {"popcount_threshold reram-512-mra4-O opt", 0x81831f4bbc67a42bULL},
};
// clang-format on

// Digest of every SimResult field (simFields) of the same configs at one
// lane word with default inputs, then two fault-tolerant runs.
// clang-format off
const Golden kGoldenSim[] = {
  {"Bitweaving reram-1024-mra2 naive", 0xee1ab7d4ab2c70ceULL},
  {"Bitweaving reram-1024-mra2 opt", 0x44f12e1d2f0f3bf0ULL},
  {"Bitweaving reram-512-mra4 naive", 0xe5ca6e67de568a52ULL},
  {"Bitweaving reram-512-mra4 opt", 0xf4e25aecf30d482cULL},
  {"Bitweaving stt-512-nand naive", 0x4063b858aebc7938ULL},
  {"Bitweaving stt-512-nand opt", 0x8b59657b832cd7a4ULL},
  {"Bitweaving reram-1024-mra2-O naive", 0xee1ab7d4ab2c70ceULL},
  {"Bitweaving reram-1024-mra2-O opt", 0x44f12e1d2f0f3bf0ULL},
  {"Bitweaving reram-512-mra4-O naive", 0xe5ca6e67de568a52ULL},
  {"Bitweaving reram-512-mra4-O opt", 0xf4e25aecf30d482cULL},
  {"Sobel reram-1024-mra2 naive", 0xc3fbe43fa55a5352ULL},
  {"Sobel reram-1024-mra2 opt", 0x36255210a2c02364ULL},
  {"Sobel reram-512-mra4 naive", 0x6f7b364b0ebfb958ULL},
  {"Sobel reram-512-mra4 opt", 0x9ebb481a5ad21db7ULL},
  {"Sobel stt-512-nand naive", 0xcee5e88c5a5eafc6ULL},
  {"Sobel stt-512-nand opt", 0x7375201f5160c62aULL},
  {"Sobel reram-1024-mra2-O naive", 0x18913953058c6acdULL},
  {"Sobel reram-1024-mra2-O opt", 0x604afc7eb56d390cULL},
  {"Sobel reram-512-mra4-O naive", 0x04f8d3b44de2b2edULL},
  {"Sobel reram-512-mra4-O opt", 0x6a18f47a360b33d2ULL},
  {"AES reram-1024-mra2 naive", 0xf3a20f80b8c91f37ULL},
  {"AES reram-1024-mra2 opt", 0x70c518bfbff4bfabULL},
  {"AES reram-512-mra4 naive", 0x0d5114bd190296feULL},
  {"AES reram-512-mra4 opt", 0x37992341d330636dULL},
  {"AES stt-512-nand naive", 0xc3d9e5b3505d2dbfULL},
  {"AES stt-512-nand opt", 0x466bb1524d0a490fULL},
  {"AES reram-1024-mra2-O naive", 0xf8f9e705f654ecf1ULL},
  {"AES reram-1024-mra2-O opt", 0x2b9b32e0d1b34313ULL},
  {"AES reram-512-mra4-O naive", 0xd68037bd3a39292cULL},
  {"AES reram-512-mra4-O opt", 0x2be3fbe22f87fa00ULL},
  {"bitweaving_between reram-1024-mra2 naive", 0x460dc6bf26c9f201ULL},
  {"bitweaving_between reram-1024-mra2 opt", 0xbac50768f97d1ca2ULL},
  {"bitweaving_between reram-512-mra4 naive", 0xa826ec73bab8dc65ULL},
  {"bitweaving_between reram-512-mra4 opt", 0x027effa83aa2b205ULL},
  {"bitweaving_between stt-512-nand naive", 0x095eacb26e13c5f0ULL},
  {"bitweaving_between stt-512-nand opt", 0xc6d5c8bff9ada120ULL},
  {"bitweaving_between reram-1024-mra2-O naive", 0x26d526f26f722414ULL},
  {"bitweaving_between reram-1024-mra2-O opt", 0xd0c5dd9c2a6185beULL},
  {"bitweaving_between reram-512-mra4-O naive", 0x29fd67117b16836eULL},
  {"bitweaving_between reram-512-mra4-O opt", 0x5c0e2d5e55987211ULL},
  {"parity_check reram-1024-mra2 naive", 0x821614b30d856266ULL},
  {"parity_check reram-1024-mra2 opt", 0xfdc87fa4e5504693ULL},
  {"parity_check reram-512-mra4 naive", 0x921bb19b9593bff6ULL},
  {"parity_check reram-512-mra4 opt", 0xd741ec19cb4734f2ULL},
  {"parity_check stt-512-nand naive", 0xe3931341ca498c58ULL},
  {"parity_check stt-512-nand opt", 0xd5b11f4351527ed5ULL},
  {"parity_check reram-1024-mra2-O naive", 0x821614b30d856266ULL},
  {"parity_check reram-1024-mra2-O opt", 0xfdc87fa4e5504693ULL},
  {"parity_check reram-512-mra4-O naive", 0x921bb19b9593bff6ULL},
  {"parity_check reram-512-mra4-O opt", 0xd741ec19cb4734f2ULL},
  {"popcount_threshold reram-1024-mra2 naive", 0xaff28cffdff156e4ULL},
  {"popcount_threshold reram-1024-mra2 opt", 0x0c0a7af24778e7c7ULL},
  {"popcount_threshold reram-512-mra4 naive", 0x08022c86a5846159ULL},
  {"popcount_threshold reram-512-mra4 opt", 0x236a25dce99fc126ULL},
  {"popcount_threshold stt-512-nand naive", 0x643cdbabe05773deULL},
  {"popcount_threshold stt-512-nand opt", 0x5c432d270c78111aULL},
  {"popcount_threshold reram-1024-mra2-O naive", 0xaff28cffdff156e4ULL},
  {"popcount_threshold reram-1024-mra2-O opt", 0x0c0a7af24778e7c7ULL},
  {"popcount_threshold reram-512-mra4-O naive", 0x08022c86a5846159ULL},
  {"popcount_threshold reram-512-mra4-O opt", 0x236a25dce99fc126ULL},
  {"Bitweaving stt-512-faulty-guarded opt", 0xe78896c42d78e17bULL},
  {"Sobel stt-512-faulty-guarded opt", 0xcf04c3f5f77e355cULL},
};
// clang-format on

uint64_t fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Kernel {
  std::string name;
  std::function<ir::Graph()> build;
};

std::vector<Kernel> kernels() {
  std::vector<Kernel> out{
      {"Bitweaving",
       [] {
         workloads::BitweavingSpec s;
         s.bits = 16;
         s.segments = 32;
         return workloads::buildBitweaving(s);
       }},
      {"Sobel",
       [] {
         workloads::SobelSpec s;
         s.width = 16;
         return workloads::buildSobel(s);
       }},
      {"AES", [] { return workloads::buildAes({10}); }},
  };
  for (const char* file :
       {"bitweaving_between", "parity_check", "popcount_threshold"}) {
    std::string path = strCat(SHERLOCK_KERNEL_DIR, "/", file, ".sk");
    out.push_back({file, [path] {
                     return frontend::compileKernel(slurp(path));
                   }});
  }
  return out;
}

/// Every SimResult field as text. Doubles print in %a, so a digest of
/// the text pins them to the last bit.
std::string simFields(const sim::SimResult& r) {
  auto exact = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf);
  };
  return strCat("latencyNs=", exact(r.latencyNs),
                " energyPj=", exact(r.energyPj),
                " stallNs=", exact(r.stallNs), " pApp=", exact(r.pApp),
                " instructionCount=", r.instructionCount,
                " cimColumnOps=", r.cimColumnOps,
                " busBusyNs=", exact(r.busBusyNs),
                " busWaitNs=", exact(r.busWaitNs),
                " verified=", r.verified, " guardedOps=", r.guardedOps,
                " retriedOps=", r.retriedOps,
                " degradedOps=", r.degradedOps,
                " stuckCellReads=", r.stuckCellReads,
                " wornRows=", r.wornRows,
                " injectedFaults=", r.injectedFaults,
                " corruptedLanes=", r.corruptedLanes());
}

/// simFields of one run, or the error it threw: a simulator failure
/// fails the simulated-result table only, not the program table.
std::string simulated(const ir::Graph& g, const isa::TargetSpec& target,
                      const mapping::Program& program,
                      const sim::SimOptions& options) {
  try {
    return simFields(sim::simulate(g, target, program, options));
  } catch (const std::exception& e) {
    return strCat("error: ", e.what());
  }
}

struct GoldenRuns {
  /// Config -> digest of its emitted assembly.
  std::vector<std::pair<std::string, uint64_t>> programs;
  /// Config -> simFields of its simulation.
  std::vector<std::pair<std::string, std::string>> sims;
};

/// Compiles every (kernel, flow, strategy) config and simulates it at
/// one lane word with default inputs; then compiles Bitweaving and Sobel
/// around a seeded STT-MRAM fault map and runs them guarded.
GoldenRuns computeRuns() {
  struct Flow {
    const char* name;
    device::TechnologyParams tech;
    int dim;
    int mra;
    bool nand;
    bool foldInverters;  ///< -O in sherlockc and the compile service
  };
  const auto reram = device::TechnologyParams::reRam();
  const auto stt = device::TechnologyParams::sttMram();
  const Flow flows[] = {
      {"reram-1024-mra2", reram, 1024, 2, false, false},
      {"reram-512-mra4", reram, 512, 4, false, false},
      {"stt-512-nand", stt, 512, 2, true, false},
      {"reram-1024-mra2-O", reram, 1024, 2, false, true},
      {"reram-512-mra4-O", reram, 512, 4, false, true},
  };
  // compileFlow verified every program; the simulator's own static
  // pass would only repeat it.
  sim::SimOptions plain;
  plain.staticVerify = false;
  GoldenRuns runs;
  for (const Kernel& kernel : kernels()) {
    ir::Graph raw = kernel.build();
    for (const Flow& flow : flows) {
      auto target = isa::TargetSpec::square(flow.dim, flow.tech, flow.mra);
      for (bool optimized : {false, true}) {
        mapping::FlowOptions options;
        options.strategy = optimized ? mapping::Strategy::Optimized
                                     : mapping::Strategy::Naive;
        options.order = optimized ? transforms::MergeOrder::ByAffinity
                                  : transforms::MergeOrder::ByPriority;
        options.nandLower = flow.nand;
        options.foldInverters = flow.foldInverters;
        mapping::FlowResult compiled =
            mapping::compileFlow(raw, target, options);
        const mapping::Program& program = compiled.compiled.program;
        std::string config =
            strCat(kernel.name, " ", flow.name, optimized ? " opt" : " naive");
        runs.programs.emplace_back(
            config, fnv1a(isa::toAssembly(program.instructions)));
        runs.sims.emplace_back(
            config, simulated(compiled.graph, target, program, plain));
      }
    }
  }
  // Fault-tolerant runs: placement around a seeded map (density 1%: 1%
  // stuck, 0.5% weak) with 16 spare rows, guarded injection at 8 lane
  // words.
  auto target = isa::TargetSpec::square(512, stt, 2);
  mapping::FlowOptions faulty;
  faulty.faultDensity = 0.01;
  faulty.faultSeed = 7;
  faulty.spareRows = 16;
  for (const Kernel& kernel : kernels()) {
    if (kernel.name != "Bitweaving" && kernel.name != "Sobel") continue;
    mapping::FlowResult compiled =
        mapping::compileFlow(kernel.build(), target, faulty);
    sim::SimOptions guarded = plain;
    guarded.laneWords = 8;
    guarded.faultMap = &*compiled.faultMap;
    guarded.guardedExecution = true;
    guarded.injectFaults = true;
    runs.sims.emplace_back(
        strCat(kernel.name, " stt-512-faulty-guarded opt"),
        simulated(compiled.graph, target, compiled.compiled.program,
                  guarded));
  }
  return runs;
}

const GoldenRuns& goldenRuns() {
  static const GoldenRuns runs = computeRuns();
  return runs;
}

void printTable(const char* name,
                const std::vector<std::pair<std::string, uint64_t>>& rows) {
  std::printf("%s:\n", name);
  for (const auto& [config, digest] : rows) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::printf("  {\"%s\", 0x%sULL},\n", config.c_str(), hex);
  }
}

TEST(Golden, EmittedProgramsMatchTheTable) {
  const auto& digests = goldenRuns().programs;
  if (std::getenv("SHERLOCK_GOLDEN_PRINT")) printTable("kGolden", digests);
  ASSERT_EQ(digests.size(), std::size(kGolden));
  for (size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kGolden[i].config);
    EXPECT_EQ(digests[i].second, kGolden[i].digest)
        << digests[i].first << ": emitted program changed";
  }
}

TEST(Golden, SimulatedResultsMatchTheTable) {
  const auto& sims = goldenRuns().sims;
  std::vector<std::pair<std::string, uint64_t>> digests;
  for (const auto& [config, fields] : sims)
    digests.emplace_back(config, fnv1a(fields));
  if (std::getenv("SHERLOCK_GOLDEN_PRINT"))
    printTable("kGoldenSim", digests);
  ASSERT_EQ(digests.size(), std::size(kGoldenSim));
  for (size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kGoldenSim[i].config);
    EXPECT_EQ(digests[i].second, kGoldenSim[i].digest)
        << digests[i].first << ": simulated result changed; it now reads\n  "
        << sims[i].second;
  }
}

// The service and sherlockc substitute in ByPriority order; the benches
// and the opt rows above use ByAffinity. At the full budget every merge
// that fits is applied, so the order cannot matter there: both give the
// same graph, which is why served and benched programs agree at the
// default budget and why the -O rows above pin what sherlockc and the
// service emit. Only a budget below 1 (Fig. 6) tells the orders apart.
TEST(Golden, MergeOrderIsIrrelevantAtFullBudget) {
  struct Preparation {
    const char* name;
    bool foldInverters;
    bool nandLower;
  };
  const Preparation preparations[] = {
      {"plain", false, false}, {"-O", true, false}, {"nand", false, true}};
  for (const Kernel& kernel : kernels()) {
    ir::Graph raw = kernel.build();
    for (const Preparation& preparation : preparations) {
      mapping::FlowOptions options;
      options.foldInverters = preparation.foldInverters;
      options.nandLower = preparation.nandLower;
      ir::Graph prepared = mapping::prepareGraph(raw, options);
      for (int maxOperands : {3, 4}) {
        transforms::SubstitutionOptions byPriority;
        byPriority.maxOperands = maxOperands;
        transforms::SubstitutionOptions byAffinity = byPriority;
        byAffinity.order = transforms::MergeOrder::ByAffinity;
        EXPECT_EQ(
            ir::graphToText(
                transforms::substituteNodes(prepared, byPriority).graph),
            ir::graphToText(
                transforms::substituteNodes(prepared, byAffinity).graph))
            << kernel.name << " " << preparation.name << " maxOperands "
            << maxOperands;
      }
    }
  }
}

}  // namespace
}  // namespace sherlock
