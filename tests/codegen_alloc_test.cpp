// Pins the heap traffic of code generation and of the front end. Over
// the paper-batch configs (the paper trio, both mappers, 1024^2 at MRA 2
// and 512^2 at MRA 4, built as perfbench builds them):
//  * generateCode may make at most 0.25 operator-new calls per emitted
//    instruction: instruction fields, placement lists and row buffers
//    must not allocate per instruction;
//  * canonicalize and substituteNodes may each make at most 1.5 calls per
//    node of the graph they return: an op's operand list is the one
//    allocation a node needs, and the graph's index, user lists and node
//    list must not add one per node.
//
// This test has its own binary because it replaces the global
// allocation functions with counting ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <utility>

#include "mapping/codegen.h"
#include "mapping/naive_mapper.h"
#include "mapping/opt_mapper.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "workloads/aes.h"
#include "workloads/bitweaving.h"
#include "workloads/sobel.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<long> allocations{0};

void* countedAllocate(std::size_t size) {
  if (counting.load(std::memory_order_relaxed))
    allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAllocate(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAllocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every form that pairs with the deletes below is replaced, so no block
// from the runtime's allocator reaches std::free (ASan checks the pairs).
void* operator new(std::size_t size) { return countedAllocate(size); }
void* operator new[](std::size_t size) { return countedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t& tag) noexcept {
  return countedAllocate(size, tag);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return countedAllocate(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sherlock {
namespace {

constexpr double kAllocationsPerInstruction = 0.25;
constexpr double kAllocationsPerNode = 1.5;

ir::Graph buildKernel(const std::string& kernel) {
  if (kernel == "Bitweaving") {
    workloads::BitweavingSpec s;
    s.bits = 16;
    s.segments = 32;
    return workloads::buildBitweaving(s);
  }
  if (kernel == "Sobel") {
    workloads::SobelSpec s;
    s.width = 16;
    return workloads::buildSobel(s);
  }
  return workloads::buildAes({10});
}

TEST(CodegenAllocations, PaperBatchStaysWithinBudget) {
  long totalAllocations = 0;
  long totalInstructions = 0;
  std::ostringstream perConfig;
  for (const char* kernel : {"Bitweaving", "Sobel", "AES"}) {
    ir::Graph canonical = transforms::canonicalize(buildKernel(kernel));
    for (bool optimized : {false, true}) {
      for (auto [dim, mra] : {std::pair{1024, 2}, std::pair{512, 4}}) {
        ir::Graph g = canonical;
        if (mra > 2) {
          transforms::SubstitutionOptions sopt;
          sopt.maxOperands = mra;
          sopt.order = optimized ? transforms::MergeOrder::ByAffinity
                                 : transforms::MergeOrder::ByPriority;
          g = transforms::substituteNodes(g, sopt).graph;
        }
        isa::TargetSpec target = isa::TargetSpec::square(
            dim, device::TechnologyParams::reRam(), mra);
        mapping::PlacementPlan plan =
            optimized ? mapping::mapOptimized(g, target).plan
                      : mapping::mapNaive(g, target);
        // The pairing mapping::compile makes for each strategy.
        mapping::CodegenOptions cg;
        cg.mergeInstructions = optimized;
        cg.eagerWriteback = !optimized;
        cg.reuseMovedCopies = optimized;

        allocations = 0;
        counting = true;
        mapping::Program program = mapping::generateCode(g, target, plan, cg);
        counting = false;

        long count = allocations;
        long insts = static_cast<long>(program.instructions.size());
        ASSERT_GT(insts, 0);
        totalAllocations += count;
        totalInstructions += insts;
        perConfig << kernel << "/" << (optimized ? "opt" : "naive") << "/"
                  << dim << "/mra" << mra << ": " << count
                  << " allocations, " << insts << " instructions, "
                  << static_cast<double>(count) / static_cast<double>(insts)
                  << " per instruction\n";
      }
    }
  }
  double perInstruction = static_cast<double>(totalAllocations) /
                          static_cast<double>(totalInstructions);
  EXPECT_LE(perInstruction, kAllocationsPerInstruction)
      << totalAllocations << " allocations for " << totalInstructions
      << " instructions\n"
      << perConfig.str();
}

/// Allocations one front-end layer made, against the nodes it returned.
struct LayerCount {
  long allocations = 0;
  long nodes = 0;
  std::ostringstream perConfig;

  void add(const std::string& config, long count, size_t outputNodes) {
    allocations += count;
    nodes += static_cast<long>(outputNodes);
    perConfig << config << ": " << count << " allocations, " << outputNodes
              << " nodes, "
              << static_cast<double>(count) /
                     static_cast<double>(outputNodes)
              << " per node\n";
  }
  void expectWithinBudget(const char* layer) const {
    ASSERT_GT(nodes, 0);
    EXPECT_LE(static_cast<double>(allocations) / static_cast<double>(nodes),
              kAllocationsPerNode)
        << layer << ": " << allocations << " allocations for " << nodes
        << " nodes\n"
        << perConfig.str();
  }
};

TEST(TransformAllocations, PaperBatchStaysWithinBudget) {
  LayerCount canonicalize, substitute;
  for (const char* kernel : {"Bitweaving", "Sobel", "AES"}) {
    const ir::Graph raw = buildKernel(kernel);
    for (bool optimized : {false, true}) {
      for (auto [dim, mra] : {std::pair{1024, 2}, std::pair{512, 4}}) {
        std::string config = strCat(kernel, "/",
                                    optimized ? "opt" : "naive", "/", dim,
                                    "/mra", mra);
        allocations = 0;
        counting = true;
        ir::Graph g = transforms::canonicalize(raw);
        counting = false;
        canonicalize.add(config, allocations, g.numNodes());
        if (mra <= 2) continue;

        transforms::SubstitutionOptions sopt;
        sopt.maxOperands = mra;
        sopt.order = optimized ? transforms::MergeOrder::ByAffinity
                               : transforms::MergeOrder::ByPriority;
        allocations = 0;
        counting = true;
        transforms::SubstitutionResult merged =
            transforms::substituteNodes(g, sopt);
        counting = false;
        substitute.add(config, allocations, merged.graph.numNodes());
      }
    }
  }
  canonicalize.expectWithinBudget("canonicalize");
  substitute.expectWithinBudget("substituteNodes");
}

}  // namespace
}  // namespace sherlock
