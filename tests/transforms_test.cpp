// Unit and property tests for the DAG transforms: canonicalization (dead
// node removal; folding and sharing are ir::Graph's, see ir_test), node
// substitution (MRA merging), NAND lowering and inverter folding. The central
// property — semantic equivalence on the marked outputs — is checked with
// the reference evaluator on randomized inputs.
#include <gtest/gtest.h>

#include "ir/analysis.h"
#include "ir/evaluator.h"
#include "support/rng.h"
#include "transforms/nand_lowering.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock::transforms {
namespace {

using ir::Graph;
using ir::NodeId;
using ir::OpKind;

/// Random input words for every input of `g`, keyed by name.
std::map<std::string, uint64_t> randomInputs(const Graph& g,
                                             uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, uint64_t> in;
  for (NodeId i : g.inputNodes()) in[g.node(i).name] = rng();
  return in;
}

/// Checks that `a` and `b` compute identical outputs on several random
/// input assignments.
void expectEquivalent(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto in = randomInputs(a, seed);
    auto wa = ir::evaluateAllWords(a, in);
    auto wb = ir::evaluateAllWords(b, in);
    for (size_t k = 0; k < a.outputs().size(); ++k)
      EXPECT_EQ(wa[static_cast<size_t>(a.outputs()[k])],
                wb[static_cast<size_t>(b.outputs()[k])])
          << "output " << k << " seed " << seed;
  }
}

TEST(Canonicalize, RemovesUnreachableOps) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId live = g.addOp(OpKind::And, {a, b});
  g.addOp(OpKind::Or, {a, b});  // dead
  g.addConst(true);              // dead
  g.markOutput(live);
  Graph out = canonicalize(g);
  EXPECT_EQ(out.opCount(), 1u);
  EXPECT_EQ(out.inputCount(), 2u);  // inputs always survive
  EXPECT_EQ(out.numNodes(), 3u);
  expectEquivalent(g, out);
}

TEST(Canonicalize, PreservesSemanticsOnWorkloads) {
  for (auto build : {+[] { return workloads::buildBitweaving({12}); },
                     +[] { return workloads::buildSobel({}); }}) {
    Graph g = build();
    Graph c = canonicalize(g);
    expectEquivalent(g, c);
    EXPECT_LE(c.numNodes(), g.numNodes());
  }
}

TEST(Canonicalize, PreservesSemanticsOnRandomDags) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 120;
    spec.maxArity = 3;
    Graph g = workloads::buildRandomDag(spec);
    expectEquivalent(g, canonicalize(g));
  }
}

// ---------------------------------------------------------------------
// Node substitution (paper Sec. 3.3.3).
// ---------------------------------------------------------------------

TEST(Substitution, MergesSingleUseChain) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId d = g.addInput("d");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::And, {x, c});
  NodeId z = g.addOp(OpKind::And, {y, d});
  g.markOutput(z);

  SubstitutionOptions opt;
  opt.maxOperands = 4;
  auto res = substituteNodes(g, opt);
  EXPECT_EQ(res.stats.candidates, 2u);
  EXPECT_EQ(res.stats.applied, 2u);
  EXPECT_EQ(res.graph.opCount(), 1u);
  const ir::Node& merged = res.graph.node(res.graph.outputs()[0]);
  EXPECT_EQ(merged.operands.size(), 4u);
  expectEquivalent(g, res.graph);
}

TEST(Substitution, RespectsMaxOperands) {
  Graph g;
  std::vector<NodeId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(g.addInput(strCat("i", i)));
  NodeId acc = ins[0];
  for (int i = 1; i < 5; ++i) acc = g.addOp(OpKind::Or, {acc, ins[static_cast<size_t>(i)]});
  g.markOutput(acc);

  SubstitutionOptions opt;
  opt.maxOperands = 3;
  auto res = substituteNodes(g, opt);
  for (NodeId i = res.graph.firstId(); i < res.graph.endId(); ++i)
    if (res.graph.node(i).isOp())
      EXPECT_LE(res.graph.node(i).operands.size(), 3u);
  expectEquivalent(g, res.graph);
}

TEST(Substitution, MultiUseProducerNotMerged) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::And, {x, c});
  NodeId z = g.addOp(OpKind::Xor, {x, y});  // x has two users
  g.markOutput(z);
  auto res = substituteNodes(g, {});
  EXPECT_EQ(res.stats.applied, 0u);
  expectEquivalent(g, res.graph);
}

TEST(Substitution, OutputProducerNotMerged) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::And, {x, c});
  g.markOutput(x);  // x must stay materialized
  g.markOutput(y);
  auto res = substituteNodes(g, {});
  EXPECT_EQ(res.stats.applied, 0u);
  expectEquivalent(g, res.graph);
}

TEST(Substitution, InvertedConsumerAbsorbsBaseProducer) {
  // NAND(AND(a,b), c) == NAND(a,b,c).
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Nand, {x, c});
  g.markOutput(y);
  auto res = substituteNodes(g, {});
  EXPECT_EQ(res.stats.applied, 1u);
  const ir::Node& merged = res.graph.node(res.graph.outputs()[0]);
  EXPECT_EQ(merged.op, OpKind::Nand);
  EXPECT_EQ(merged.operands.size(), 3u);
  expectEquivalent(g, res.graph);
}

TEST(Substitution, InvertedProducerNotAbsorbed) {
  // AND(NAND(a,b), c) != AND(a,b,c): must not merge.
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId x = g.addOp(OpKind::Nand, {a, b});
  NodeId y = g.addOp(OpKind::And, {x, c});
  g.markOutput(y);
  auto res = substituteNodes(g, {});
  EXPECT_EQ(res.stats.applied, 0u);
  expectEquivalent(g, res.graph);
}

TEST(Substitution, FractionZeroIsIdentityShape) {
  Graph g = workloads::buildSobel({});
  SubstitutionOptions opt;
  opt.fraction = 0.0;
  auto res = substituteNodes(g, opt);
  EXPECT_EQ(res.stats.applied, 0u);
  EXPECT_EQ(res.stats.wideOps, 0u);
}

TEST(Substitution, FractionSweepMonotoneInWideOps) {
  Graph g = canonicalize(workloads::buildSobel({}));
  SubstitutionOptions opt;
  opt.maxOperands = 6;
  size_t prevWide = 0;
  for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    opt.fraction = f;
    auto res = substituteNodes(g, opt);
    EXPECT_GE(res.stats.wideOps, prevWide) << "fraction " << f;
    prevWide = res.stats.wideOps;
    expectEquivalent(g, res.graph);
  }
}

TEST(Substitution, XorChainsCancelExactly) {
  // XOR(XOR(a,b), b) with single uses merges to XOR(a,b,b) -> a.
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::Xor, {a, b});
  NodeId y = g.addOp(OpKind::Xor, {x, b});
  g.markOutput(y);
  auto res = substituteNodes(g, {});
  expectEquivalent(g, res.graph);
}

TEST(Substitution, RandomDagsStayEquivalent) {
  for (uint64_t seed = 20; seed < 32; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 150;
    Graph g = canonicalize(workloads::buildRandomDag(spec));
    for (auto order : {MergeOrder::ByPriority, MergeOrder::ByAffinity}) {
      SubstitutionOptions opt;
      opt.maxOperands = 5;
      opt.order = order;
      auto res = substituteNodes(g, opt);
      expectEquivalent(g, res.graph);
    }
  }
}

// ---------------------------------------------------------------------
// NAND lowering (STT-MRAM flow).
// ---------------------------------------------------------------------

TEST(NandLowering, ProducesNandOnlyGraphs) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  g.markOutput(g.addOp(OpKind::Or, {a, b}));
  g.markOutput(g.addOp(OpKind::Xor, {a, c}));
  g.markOutput(g.addOp(OpKind::Nor, {b, c}));
  g.markOutput(g.addOp(OpKind::Xnor, {a, b}));
  Graph out = lowerToNand(g);
  EXPECT_TRUE(isNandOnly(out));
  expectEquivalent(g, out);
}

TEST(NandLowering, MultiOperandOrStaysSingleNand) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId d = g.addInput("d");
  g.markOutput(g.addOp(OpKind::Or, {a, b, c, d}));
  Graph out = lowerToNand(g);
  EXPECT_TRUE(isNandOnly(out));
  // 4 NOTs + 1 wide NAND.
  EXPECT_EQ(out.opCount(), 5u);
  expectEquivalent(g, out);
}

TEST(NandLowering, MultiOperandXorTree) {
  Graph g;
  std::vector<NodeId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(g.addInput(strCat("i", i)));
  g.markOutput(g.addOp(OpKind::Xor, ins));
  Graph out = lowerToNand(g);
  EXPECT_TRUE(isNandOnly(out));
  expectEquivalent(g, out);
}

TEST(NandLowering, WorkloadsEquivalent) {
  Graph g = workloads::buildBitweaving({10});
  Graph out = lowerToNand(g);
  EXPECT_TRUE(isNandOnly(out));
  expectEquivalent(g, out);
}

TEST(NandLowering, RandomDagsEquivalent) {
  for (uint64_t seed = 40; seed < 48; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 100;
    spec.maxArity = 4;
    Graph g = workloads::buildRandomDag(spec);
    Graph out = lowerToNand(g);
    EXPECT_TRUE(isNandOnly(out));
    expectEquivalent(g, out);
  }
}

}  // namespace
}  // namespace sherlock::transforms

namespace sherlock::transforms {
namespace {

using ir::Graph;
using ir::NodeId;
using ir::OpKind;

TEST(FoldInverters, NotOverSingleUseOpBecomesInvertedKind) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Not, {x});
  g.markOutput(y);
  Graph out = foldInverters(g);
  EXPECT_EQ(out.opCount(), 1u);
  EXPECT_EQ(out.node(out.outputs()[0]).op, OpKind::Nand);
  expectEquivalent(g, out);
}

TEST(FoldInverters, MultiUseOpKeepsExplicitNot) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Not, {x});
  NodeId z = g.addOp(OpKind::Or, {x, a});  // second use of x
  g.markOutput(y);
  g.markOutput(z);
  Graph out = foldInverters(g);
  // The And must survive for z, so the Not cannot be absorbed... but the
  // rewriter may still emit a Nand alongside; semantics are what matters.
  expectEquivalent(g, out);
}

TEST(FoldInverters, DeMorganAllNotOperands) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId na = g.addOp(OpKind::Not, {a});
  NodeId nb = g.addOp(OpKind::Not, {b});
  NodeId x = g.addOp(OpKind::And, {na, nb});  // == NOR(a, b)
  g.markOutput(x);
  Graph out = foldInverters(g);
  EXPECT_EQ(out.opCount(), 1u);
  EXPECT_EQ(out.node(out.outputs()[0]).op, OpKind::Nor);
  expectEquivalent(g, out);
}

TEST(FoldInverters, XorStripsNotsPairwise) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId na = g.addOp(OpKind::Not, {a});
  NodeId nb = g.addOp(OpKind::Not, {b});
  NodeId even = g.addOp(OpKind::Xor, {na, nb});  // == a ^ b
  NodeId c = g.addInput("c");
  NodeId nc = g.addOp(OpKind::Not, {c});
  NodeId odd = g.addOp(OpKind::Xor, {even, nc});  // == ~(a^b^c)
  g.markOutput(odd);
  Graph out = foldInverters(g);
  // No NOT nodes survive.
  for (NodeId i = out.firstId(); i < out.endId(); ++i)
    if (out.node(i).isOp()) EXPECT_NE(out.node(i).op, OpKind::Not);
  expectEquivalent(g, out);
}

TEST(FoldInverters, ShrinksFrontEndWorkloads) {
  // Sobel's subtractors are NOT-heavy and must shrink strictly;
  // Bitweaving already uses native inverted ops, so "no growth" suffices.
  Graph bw = canonicalize(workloads::buildBitweaving({12}));
  Graph bwOut = foldInverters(bw);
  EXPECT_LE(bwOut.opCount(), bw.opCount());
  expectEquivalent(bw, bwOut);

  Graph sobel = canonicalize(workloads::buildSobel({}));
  Graph sobelOut = foldInverters(sobel);
  EXPECT_LT(sobelOut.opCount(), sobel.opCount());
  expectEquivalent(sobel, sobelOut);
}

TEST(FoldInverters, RandomDagsStayEquivalent) {
  for (uint64_t seed = 60; seed < 72; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 150;
    spec.maxArity = 3;
    spec.notProbability = 0.3;  // NOT-heavy on purpose
    Graph g = workloads::buildRandomDag(spec);
    expectEquivalent(g, foldInverters(g));
    expectEquivalent(g, foldInverters(canonicalize(g)));
  }
}

TEST(FoldInverters, IdempotentOnFixedPoint) {
  Graph g = foldInverters(canonicalize(workloads::buildSobel({})));
  Graph again = foldInverters(g);
  EXPECT_EQ(again.opCount(), g.opCount());
  expectEquivalent(g, again);
}

}  // namespace
}  // namespace sherlock::transforms
