// Cache-key canonicalization tests (ir/canonical.h): alpha-renamed,
// renumbered, and commuted-operand DAGs must share a fingerprint;
// structurally different DAGs must not; the canonical graph must
// compute the same function as the original under the input-name
// remapping — the property the compile service's content-addressed
// cache stands on; and the fingerprints themselves must not move between
// builds, because cache keys and persisted snapshots store them.
#include "ir/canonical.h"

#include <algorithm>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "dag_fuzz.h"
#include "frontend/lowering.h"
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

namespace {

/// The compile service's fingerprint of `g`: dead nodes dropped, then the
/// canonical form.
std::string serviceFingerprint(const Graph& g) {
  return canonicalForm(transforms::canonicalize(g)).fingerprint();
}

/// One "<name> <fingerprint>" line per example kernel and per fuzz DAG
/// of seeds 1-50 (the differential harness's DAG for each seed).
std::string fingerprintTable() {
  std::string table;
  for (const char* kernel :
       {"bitweaving_between", "parity_check", "popcount_threshold"}) {
    std::ifstream in(strCat(SHERLOCK_KERNEL_DIR, "/", kernel, ".sk"));
    std::ostringstream source;
    source << in.rdbuf();
    EXPECT_TRUE(in.good()) << "cannot read kernel " << kernel;
    table += strCat(kernel, " ",
                    serviceFingerprint(frontend::compileKernel(source.str())),
                    "\n");
  }
  for (uint64_t seed = 1; seed <= 50; ++seed)
    table += strCat("fuzz", seed, " ",
                    serviceFingerprint(workloads::buildRandomDag(
                        sherlock::testing::sampleDagSpec(seed))),
                    "\n");
  return table;
}

/// Recorded from the build before the op index, the inline user lists
/// and the heap-ordered emission; a change to any fingerprint invalidates
/// every cache key and snapshot built on it.
const char* const kRecordedFingerprints = R"(
bitweaving_between 77739570d4f1a0e2.05a3d70301aa6741
parity_check e15b7fc0ca00d439.de17706315e340e1
popcount_threshold a95ed0d4d2e9ae13.caeedbb7d727a9ea
fuzz1 4c3ed89fd691d703.de9f0524167bc2aa
fuzz2 b0448b8ccc4555f5.e3f9ce015d9281b9
fuzz3 47768e8f24fbba8e.d7b0a6947cb87095
fuzz4 3a0e02fa4dca41f3.160cd3b3bc431742
fuzz5 cc645c4f80064f59.9fcb465e69421d56
fuzz6 d67a39ba17c982a7.dd6bd48e5c3ddc6f
fuzz7 8c3150800c682c02.c464f3096e2fb909
fuzz8 1811163238cd087d.42745dba745f2de5
fuzz9 bd84fd7b204e610d.cdf969ed4bff13bb
fuzz10 aa6b0334bd8ea98c.fc9ad3e454db0904
fuzz11 668da938e7623b79.b7b7eb449894ebcd
fuzz12 2db5e84f2c83e8a9.c09bef3bda727e8e
fuzz13 ebfe115bd8198bd9.d2b8d8216735b900
fuzz14 e186f253f8d984ab.9f8eca2a0c5e7f51
fuzz15 07fb88020965bab6.7475d8ee83690885
fuzz16 ea7a38dac76d2e5c.3be9e92e179389b2
fuzz17 498954aaa444e196.96f5bfde7f0b9aab
fuzz18 8e8ada9a8a8b716c.7b7c49c9ccc839a5
fuzz19 244b04b966cc94cb.7fe4253191f3ba47
fuzz20 59866c157807808e.ac61b4efdce372e2
fuzz21 b7fceefcddf78ae8.cf3b9bf7c20397a2
fuzz22 cf15d7b3b93554be.fa8ce596e0ea8425
fuzz23 60173a4c77e7a46d.a2621068d71e2498
fuzz24 4f06983582758647.a5865d8cb98b212c
fuzz25 42c4a6e1f2a722a1.bec5ab467d4382d6
fuzz26 7c94ae600f5859dd.cb45d13827fb883f
fuzz27 c7d6bdeb855ae4b6.f226d730b11397de
fuzz28 a1060eaacda4b087.76bcb23a401d2378
fuzz29 e1ef33c8b1ce8a27.1128392c3c241caa
fuzz30 e68e06217597d0f7.ba7e9df382cbee17
fuzz31 7947c320ab79101f.17e0a782f6fab67a
fuzz32 4104398c2b283232.ad5aa6a8ba4d5e2a
fuzz33 e89a3c21b70e6ce9.2d8952178564fa50
fuzz34 e0d08e12abed8edc.fedfe5934c0863f7
fuzz35 112063a5a6e5c9ef.c707dab759ce6759
fuzz36 ce6f8e1ba5d4ac86.7349fdb70297edc5
fuzz37 2c61cf3432cb1f34.c2a62256d49eda56
fuzz38 39234c26fded2036.6232b075f11d7b07
fuzz39 cdb73b938db7f01f.d17e7c90078af01c
fuzz40 82cdb18c61091206.63c20930f2ed6500
fuzz41 06723e2713f35577.fbb7217c6e0b43f7
fuzz42 802169a41cc908c3.b40223b67833bfbe
fuzz43 393ed20ba6ec2b68.d96e20a9b8c4bf16
fuzz44 cf1b84b960ebc32e.2430c7ea149b8ed2
fuzz45 b497f8176e6927bb.cd5f41e1299b3a0d
fuzz46 d4a02bb42aa8880e.f5f2d89c18d0d8d7
fuzz47 f9fc5d96179793d0.0174e8e51c91d918
fuzz48 4cc51194b569d507.92df4647bdadf8c0
fuzz49 a930186b77077179.23e9989ab7a4b5db
fuzz50 1460c815f0f55b1e.eb6bb08ea38a7f17
)";

}  // namespace

TEST(Canonical, FingerprintsMatchTheRecordedTable) {
  EXPECT_EQ("\n" + fingerprintTable(), kRecordedFingerprints);
}
