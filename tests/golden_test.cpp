// Golden-output gate: a digest of the emitted assembly for the paper's
// three kernels and the shipped example kernels, per mapping strategy,
// array size / MRA, technology flow and DAG pipeline (the default one,
// or -O's inverter folding). Refactors that must keep every program
// byte-identical (the IR builder, codegen's data structures) keep this
// test green. A change that moves a digest on purpose regenerates the
// table and explains the difference:
//
//   SHERLOCK_GOLDEN_PRINT=1 ./golden_test   # prints the current table
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lowering.h"
#include "isa/instruction.h"
#include "mapping/compiler.h"
#include "transforms/nand_lowering.h"
#include "transforms/passes.h"
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
  {"Bitweaving reram-1024-mra2 opt", 0x11ad42574b9c9079ULL},
  {"Bitweaving reram-512-mra4 naive", 0xce71730bf308a524ULL},
  {"Bitweaving reram-512-mra4 opt", 0xfab2e05e4598d68dULL},
  {"Bitweaving stt-512-nand naive", 0xd55cf3e6bee9b03dULL},
  {"Bitweaving stt-512-nand opt", 0xff069746416be6d5ULL},
  {"Bitweaving reram-1024-mra2-O naive", 0x92e66b8b4eeb4c6cULL},
  {"Bitweaving reram-1024-mra2-O opt", 0x11ad42574b9c9079ULL},
  {"Bitweaving reram-512-mra4-O naive", 0xce71730bf308a524ULL},
  {"Bitweaving reram-512-mra4-O opt", 0xfab2e05e4598d68dULL},
  {"Sobel reram-1024-mra2 naive", 0x32101829d39b1f8cULL},
  {"Sobel reram-1024-mra2 opt", 0x2dac50fb22f9849eULL},
  {"Sobel reram-512-mra4 naive", 0xcd4f29e756ba739cULL},
  {"Sobel reram-512-mra4 opt", 0x482591f045c8652eULL},
  {"Sobel stt-512-nand naive", 0x80cdee7cb470daefULL},
  {"Sobel stt-512-nand opt", 0x355031efff396b1eULL},
  {"Sobel reram-1024-mra2-O naive", 0x9d6ca9bcb0e0fec5ULL},
  {"Sobel reram-1024-mra2-O opt", 0x47869e97992e4432ULL},
  {"Sobel reram-512-mra4-O naive", 0x81535163b4ee2900ULL},
  {"Sobel reram-512-mra4-O opt", 0x054a472f7068c909ULL},
  {"AES reram-1024-mra2 naive", 0x6e60afeb4e3f6af1ULL},
  {"AES reram-1024-mra2 opt", 0xcb65bebdb5b3565fULL},
  {"AES reram-512-mra4 naive", 0xfe775104bb259d31ULL},
  {"AES reram-512-mra4 opt", 0x24a55eddbba1c716ULL},
  {"AES stt-512-nand naive", 0xa0edaf49f8883daaULL},
  {"AES stt-512-nand opt", 0x69365daf56875afbULL},
  {"AES reram-1024-mra2-O naive", 0x0007af54e73c5bb0ULL},
  {"AES reram-1024-mra2-O opt", 0xe03e9e0e57e88b3bULL},
  {"AES reram-512-mra4-O naive", 0x066f83190900e9cdULL},
  {"AES reram-512-mra4-O opt", 0xc4d904bafe3cc92fULL},
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

/// Digest of the program for every (kernel, flow, strategy) config.
std::vector<std::pair<std::string, uint64_t>> currentDigests() {
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
  std::vector<std::pair<std::string, uint64_t>> digests;
  for (const Kernel& kernel : kernels()) {
    ir::Graph canonical = transforms::canonicalize(kernel.build());
    ir::Graph folded = transforms::foldInverters(canonical);
    for (const Flow& flow : flows) {
      const ir::Graph& source = flow.foldInverters ? folded : canonical;
      ir::Graph base = flow.nand ? transforms::canonicalize(
                                       transforms::lowerToNand(source))
                                 : source;
      for (bool optimized : {false, true}) {
        ir::Graph g = base;
        if (flow.mra > 2) {
          transforms::SubstitutionOptions sopt;
          sopt.maxOperands = flow.mra;
          sopt.order = optimized ? transforms::MergeOrder::ByAffinity
                                 : transforms::MergeOrder::ByPriority;
          g = transforms::substituteNodes(base, sopt).graph;
        }
        mapping::CompileOptions copts;
        copts.strategy = optimized ? mapping::Strategy::Optimized
                                   : mapping::Strategy::Naive;
        auto compiled = mapping::compile(
            g, isa::TargetSpec::square(flow.dim, flow.tech, flow.mra), copts);
        digests.emplace_back(
            strCat(kernel.name, " ", flow.name, optimized ? " opt" : " naive"),
            fnv1a(isa::toAssembly(compiled.program.instructions)));
      }
    }
  }
  return digests;
}

TEST(Golden, EmittedProgramsMatchTheTable) {
  auto digests = currentDigests();
  if (std::getenv("SHERLOCK_GOLDEN_PRINT")) {
    for (const auto& [config, digest] : digests) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(digest));
      std::printf("  {\"%s\", 0x%sULL},\n", config.c_str(), hex);
    }
  }
  ASSERT_EQ(digests.size(), std::size(kGolden));
  for (size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kGolden[i].config);
    EXPECT_EQ(digests[i].second, kGolden[i].digest)
        << digests[i].first << ": emitted program changed";
  }
}

}  // namespace
}  // namespace sherlock
