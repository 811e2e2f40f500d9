// Cache-key canonicalization tests (ir/canonical.h): alpha-renamed,
// renumbered, and commuted-operand DAGs must share a fingerprint;
// structurally different DAGs must not; and the canonical graph must
// compute the same function as the original under the input-name
// remapping — the property the compile service's content-addressed
// cache stands on.
#include "ir/canonical.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "ir/evaluator.h"
#include "ir/serialize.h"
#include "support/rng.h"
#include "transforms/passes.h"
#include "workloads/random_dag.h"

using namespace sherlock;
using namespace sherlock::ir;

namespace {

std::string canonicalText(const Graph& g) {
  return graphToText(canonicalForm(g).graph);
}

std::string fp(const Graph& g) { return canonicalForm(g).fingerprint(); }

/// a & b, (a & b) ^ c, output the xor.
Graph smallGraph(const std::string& a, const std::string& b,
                 const std::string& c, bool commuteAnd = false) {
  Graph g;
  NodeId na = g.addInput(a);
  NodeId nb = g.addInput(b);
  NodeId nc = g.addInput(c);
  NodeId nand_ = commuteAnd ? g.addOp(OpKind::And, {nb, na})
                            : g.addOp(OpKind::And, {na, nb});
  NodeId nxor = g.addOp(OpKind::Xor, {nand_, nc});
  g.markOutput(nxor);
  return g;
}

}  // namespace

TEST(Canonical, AlphaRenamedGraphsShareFingerprint) {
  Graph g1 = smallGraph("a", "b", "c");
  Graph g2 = smallGraph("x", "y", "z");
  EXPECT_EQ(fp(g1), fp(g2));
  EXPECT_EQ(canonicalText(g1), canonicalText(g2));
}

TEST(Canonical, CommutedOperandsShareFingerprint) {
  Graph g1 = smallGraph("a", "b", "c", /*commuteAnd=*/false);
  Graph g2 = smallGraph("a", "b", "c", /*commuteAnd=*/true);
  EXPECT_EQ(fp(g1), fp(g2));
}

TEST(Canonical, RenumberedGraphShareFingerprint) {
  // Same DAG, nodes declared in a different order.
  Graph g1 = smallGraph("a", "b", "c");
  Graph g2;
  NodeId nc = g2.addInput("c");
  NodeId nb = g2.addInput("b");
  NodeId na = g2.addInput("a");
  NodeId nand_ = g2.addOp(OpKind::And, {na, nb});
  NodeId nxor = g2.addOp(OpKind::Xor, {nc, nand_});
  g2.markOutput(nxor);
  EXPECT_EQ(fp(g1), fp(g2));
}

TEST(Canonical, DifferentOpKindsDiffer) {
  Graph g1, g2;
  {
    NodeId a = g1.addInput("a"), b = g1.addInput("b");
    g1.markOutput(g1.addOp(OpKind::And, {a, b}));
  }
  {
    NodeId a = g2.addInput("a"), b = g2.addInput("b");
    g2.markOutput(g2.addOp(OpKind::Or, {a, b}));
  }
  EXPECT_NE(fp(g1), fp(g2));
}

TEST(Canonical, SharedOperandDistinguishedFromDistinctOperands) {
  // And(a, b) vs And(a, a): alpha-blind input hashing must not conflate
  // two distinct inputs with a doubly-used one.
  Graph g1, g2;
  {
    NodeId a = g1.addInput("a"), b = g1.addInput("b");
    g1.markOutput(g1.addOp(OpKind::And, {a, b}));
  }
  {
    NodeId a = g2.addInput("a"), b = g2.addInput("b");
    (void)b;  // same interface, different wiring
    g2.markOutput(g2.addOp(OpKind::And, {a, a}));
  }
  EXPECT_NE(fp(g1), fp(g2));
}

TEST(Canonical, ConstValueMatters) {
  Graph g1, g2;
  {
    NodeId a = g1.addInput("a"), k = g1.addConst(false);
    g1.markOutput(g1.addOp(OpKind::Xor, {a, k}));
  }
  {
    NodeId a = g2.addInput("a"), k = g2.addConst(true);
    g2.markOutput(g2.addOp(OpKind::Xor, {a, k}));
  }
  EXPECT_NE(fp(g1), fp(g2));
}

TEST(Canonical, OutputOrderAndMultiplicityMatter) {
  auto build = [](bool swapped, bool doubled) {
    Graph g;
    NodeId a = g.addInput("a"), b = g.addInput("b");
    NodeId x = g.addOp(OpKind::And, {a, b});
    NodeId y = g.addOp(OpKind::Or, {a, b});
    if (swapped) {
      g.markOutput(y);
      g.markOutput(x);
    } else {
      g.markOutput(x);
      g.markOutput(y);
    }
    if (doubled) g.markOutput(x);
    return g;
  };
  EXPECT_NE(fp(build(false, false)), fp(build(true, false)));
  EXPECT_NE(fp(build(false, false)), fp(build(false, true)));
}

TEST(Canonical, IdempotentFixedPoint) {
  Graph g = smallGraph("p", "q", "r");
  CanonicalForm once = canonicalForm(g);
  CanonicalForm twice = canonicalForm(once.graph);
  EXPECT_EQ(once.fingerprint(), twice.fingerprint());
  EXPECT_EQ(graphToText(once.graph), graphToText(twice.graph));
}

TEST(Canonical, InputNamesMapCanonicalPositions) {
  Graph g = smallGraph("left", "right", "carry");
  CanonicalForm cf = canonicalForm(g);
  ASSERT_EQ(cf.inputNames.size(), 3u);
  std::vector<std::string> names = cf.inputNames;
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"carry", "left", "right"}));
  // Canonical inputs are positional.
  for (size_t k = 0, seen = 0; k < cf.graph.numNodes(); ++k) {
    const Node& n = cf.graph.node(static_cast<NodeId>(k));
    if (n.isInput()) {
      EXPECT_EQ(n.name, strCat("i", seen++));
    }
  }
}

namespace {

/// Rebuilds `g` under a random topological re-declaration order, with
/// inputs renamed and commutative operand lists shuffled — an
/// isomorphic graph that shares no incidental byte with the original.
Graph scramble(const Graph& g, Rng& rng) {
  size_t n = g.numNodes();
  std::vector<int> pending(n, 0);
  std::vector<NodeId> ready;
  for (NodeId id = g.firstId(); id < g.endId(); ++id) {
    pending[static_cast<size_t>(id)] =
        static_cast<int>(g.node(id).operands.size());
    if (g.node(id).operands.empty()) ready.push_back(id);
  }
  Graph out;
  std::vector<NodeId> remap(n, kInvalidNode);
  int inputs = 0;
  while (!ready.empty()) {
    size_t pick = rng.below(ready.size());
    NodeId id = ready[pick];
    ready.erase(ready.begin() + static_cast<long>(pick));
    const Node& node = g.node(id);
    NodeId mapped;
    if (node.isInput()) {
      mapped = out.addInput(strCat("renamed_", inputs++));
    } else if (node.isConst()) {
      mapped = out.addConst(node.constValue);
    } else {
      std::vector<NodeId> operands;
      for (NodeId o : node.operands)
        operands.push_back(remap[static_cast<size_t>(o)]);
      if (!isUnary(node.op))
        std::shuffle(operands.begin(), operands.end(), rng);
      mapped = out.addOp(node.op, std::move(operands));
    }
    remap[static_cast<size_t>(id)] = mapped;
    for (NodeId u : node.users)
      if (--pending[static_cast<size_t>(u)] == 0) ready.push_back(u);
  }
  for (NodeId o : g.outputs()) out.markOutput(remap[static_cast<size_t>(o)]);
  out.validate();
  return out;
}

}  // namespace

TEST(Canonical, FuzzScrambledGraphsShareFingerprintAndFunction) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    workloads::RandomDagSpec spec;
    spec.seed = seed;
    spec.inputs = 3 + static_cast<int>(seed % 7);
    spec.ops = 10 + static_cast<int>(seed * 7 % 90);
    spec.maxArity = 2 + static_cast<int>(seed % 3);
    spec.notProbability = 0.2;
    spec.locality = 0.3 + 0.1 * static_cast<double>(seed % 7);
    Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));

    Rng rng(seed * 77 + 5);
    Graph shuffled = scramble(g, rng);
    CanonicalForm a = canonicalForm(g);
    CanonicalForm b = canonicalForm(shuffled);
    ASSERT_EQ(a.fingerprint(), b.fingerprint()) << "seed " << seed;
    ASSERT_EQ(graphToText(a.graph), graphToText(b.graph))
        << "seed " << seed;

    // Soundness: the canonical graph computes the original function
    // under the inputNames remapping.
    std::map<std::string, uint64_t> inputs, canonicalInputs;
    for (NodeId id = g.firstId(); id < g.endId(); ++id)
      if (g.node(id).isInput()) inputs[g.node(id).name] = rng();
    for (size_t k = 0; k < a.inputNames.size(); ++k)
      canonicalInputs[strCat("i", k)] = inputs.at(a.inputNames[k]);
    std::vector<uint64_t> ref = evaluateAllWords(g, inputs);
    std::vector<uint64_t> can =
        evaluateAllWords(a.graph, canonicalInputs);
    ASSERT_EQ(g.outputs().size(), a.graph.outputs().size());
    for (size_t i = 0; i < g.outputs().size(); ++i)
      ASSERT_EQ(ref[static_cast<size_t>(g.outputs()[i])],
                can[static_cast<size_t>(a.graph.outputs()[i])])
          << "seed " << seed << " output " << i;
  }
}
