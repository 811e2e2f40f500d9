// Unit tests for the DAG IR: construction and its folding/hash-consing
// rules, validation, analyses (b-level), the reference evaluator, and DOT
// export.
#include <gtest/gtest.h>

#include "ir/analysis.h"
#include "ir/dot.h"
#include "ir/evaluator.h"
#include "ir/graph.h"
#include "ir/serialize.h"
#include "support/rng.h"

namespace sherlock::ir {
namespace {

TEST(Ops, NamesRoundTrip) {
  for (OpKind op : {OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Nand,
                    OpKind::Nor, OpKind::Xnor, OpKind::Not, OpKind::Copy})
    EXPECT_EQ(opFromName(opName(op)), op);
  EXPECT_THROW(opFromName("FROB"), Error);
}

TEST(Ops, EvalBinary) {
  uint64_t a = 0b1100, b = 0b1010;
  std::vector<uint64_t> ops{a, b};
  EXPECT_EQ(evalOp(OpKind::And, ops) & 0xf, 0b1000u);
  EXPECT_EQ(evalOp(OpKind::Or, ops) & 0xf, 0b1110u);
  EXPECT_EQ(evalOp(OpKind::Xor, ops) & 0xf, 0b0110u);
  EXPECT_EQ(evalOp(OpKind::Nand, ops) & 0xf, 0b0111u);
  EXPECT_EQ(evalOp(OpKind::Nor, ops) & 0xf, 0b0001u);
  EXPECT_EQ(evalOp(OpKind::Xnor, ops) & 0xf, 0b1001u);
}

TEST(Ops, EvalMultiOperand) {
  std::vector<uint64_t> ops{0b1111, 0b1100, 0b1010};
  EXPECT_EQ(evalOp(OpKind::And, ops) & 0xf, 0b1000u);
  EXPECT_EQ(evalOp(OpKind::Or, ops) & 0xf, 0b1111u);
  EXPECT_EQ(evalOp(OpKind::Xor, ops) & 0xf, 0b1001u);
}

TEST(Ops, EvalUnary) {
  std::vector<uint64_t> one{0b1100};
  EXPECT_EQ(evalOp(OpKind::Not, one) & 0xf, 0b0011u);
  EXPECT_EQ(evalOp(OpKind::Copy, one) & 0xf, 0b1100u);
  EXPECT_THROW(evalOp(OpKind::Not, std::vector<uint64_t>{1, 2}), Error);
  EXPECT_THROW(evalOp(OpKind::And, one), Error);
}

TEST(Graph, ArityEnforced) {
  Graph g;
  NodeId a = g.addInput("a");
  EXPECT_THROW(g.addOp(OpKind::And, {a}), Error);
  EXPECT_THROW(g.addOp(OpKind::Not, {a, a}), Error);
  EXPECT_THROW(g.addOp(OpKind::And, {a, 99}), Error);
}

TEST(Graph, UserListsTrackConsumers) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Or, {x, a});
  EXPECT_EQ(g.node(a).users, (std::vector<NodeId>{x, y}));
  EXPECT_EQ(g.node(x).users, (std::vector<NodeId>{y}));
  g.validate();
}

TEST(Graph, CountsAndNodeLists) {
  Graph g;
  NodeId a = g.addInput("a");
  g.addConst(true);  // a value, but neither an input nor an op
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::Or, {a, b});
  g.markOutput(x);
  EXPECT_EQ(g.opCount(), 1u);
  EXPECT_EQ(g.inputCount(), 2u);
  EXPECT_EQ(g.valueCount(), 4u);
  EXPECT_EQ(g.opNodes(), (std::vector<NodeId>{x}));
  EXPECT_EQ(g.inputNodes(), (std::vector<NodeId>{a, b}));
  // Outputs are positional: marking twice keeps both entries.
  g.markOutput(x);
  EXPECT_EQ(g.outputs().size(), 2u);
}

// ---------------------------------------------------------------------
// Canonical by construction: addOp folds and hash-conses.
// ---------------------------------------------------------------------

TEST(GraphRules, StructurallyEqualOpsShareOneNode) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  EXPECT_EQ(g.addOp(OpKind::And, {b, a}), x);  // operand order is irrelevant
  EXPECT_NE(g.addOp(OpKind::Nand, {a, b}), x);  // the kind is not
  EXPECT_EQ(g.opCount(), 2u);
  EXPECT_EQ(g.node(a).users.size(), 2u);  // one entry per distinct user
  // The shared node keeps the operand order it was first added with.
  EXPECT_EQ(g.node(x).operands, (std::vector<NodeId>{a, b}));
  EXPECT_EQ(g.addOp(OpKind::Xor, {x, g.addOp(OpKind::And, {b, a})}),
            g.addConst(false));
}

TEST(GraphRules, OneNodePerConstant) {
  Graph g;
  NodeId zero = g.addConst(false);
  NodeId one = g.addConst(true);
  EXPECT_NE(zero, one);
  EXPECT_EQ(g.addConst(false), zero);
  EXPECT_EQ(g.addConst(true), one);
  EXPECT_EQ(g.numNodes(), 2u);
}

TEST(GraphRules, ConstantIdentities) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId zero = g.addConst(false);
  NodeId one = g.addConst(true);
  EXPECT_EQ(g.addOp(OpKind::And, {a, zero}), zero);  // absorbing
  EXPECT_EQ(g.addOp(OpKind::Or, {a, one}), one);     // absorbing
  EXPECT_EQ(g.addOp(OpKind::Nor, {one, a}), zero);   // absorbing, inverted
  EXPECT_EQ(g.addOp(OpKind::Or, {a, zero}), a);      // identity
  EXPECT_EQ(g.addOp(OpKind::And, {one, a}), a);      // identity
  EXPECT_EQ(g.addOp(OpKind::Xnor, {a, one}), a);     // x ^ 1 flips parity
  NodeId notA = g.addOp(OpKind::Xor, {a, one});
  EXPECT_EQ(g.node(notA).op, OpKind::Not);
  EXPECT_EQ(g.addOp(OpKind::Not, {a}), notA);
  EXPECT_EQ(g.addOp(OpKind::Nand, {one, zero}), one);  // all constant
  // Inverted multi-operand ops keep an inverted kind.
  NodeId nand = g.addOp(OpKind::Nand, {a, one, b});
  EXPECT_EQ(g.node(nand).op, OpKind::Nand);
  EXPECT_EQ(g.node(nand).operands, (std::vector<NodeId>{a, b}));
  EXPECT_EQ(g.node(g.addOp(OpKind::Xor, {a, b, one})).op, OpKind::Xnor);
  EXPECT_EQ(g.opCount(), 3u);
  g.validate();
}

TEST(GraphRules, UnaryRules) {
  Graph g;
  NodeId a = g.addInput("a");
  EXPECT_EQ(g.addOp(OpKind::Copy, {a}), a);
  NodeId n1 = g.addOp(OpKind::Not, {a});
  EXPECT_EQ(g.addOp(OpKind::Not, {n1}), a);
  EXPECT_EQ(g.addOp(OpKind::Not, {g.addConst(true)}), g.addConst(false));
  EXPECT_EQ(g.opCount(), 1u);
}

TEST(GraphRules, RepeatedOperands) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId ab = g.addOp(OpKind::And, {a, b});
  EXPECT_EQ(g.addOp(OpKind::And, {a, a, b}), ab);  // idempotent
  EXPECT_EQ(g.addOp(OpKind::Or, {c, c}), c);
  EXPECT_EQ(g.addOp(OpKind::Xor, {a, a}), g.addConst(false));  // cancels
  EXPECT_EQ(g.addOp(OpKind::Xnor, {b, b}), g.addConst(true));
  // XOR keeps operands of odd multiplicity at their first position.
  NodeId x = g.addOp(OpKind::Xor, {b, a, b, c, b});
  EXPECT_EQ(g.node(x).operands, (std::vector<NodeId>{b, a, c}));
  NodeId nb = g.addOp(OpKind::Xnor, {a, b, a});
  EXPECT_EQ(g.node(nb).op, OpKind::Not);
  EXPECT_EQ(g.node(nb).operands, (std::vector<NodeId>{b}));
  g.validate();
}

TEST(GraphRules, FuzzedRequestsStayCanonicalAndExact) {
  // Random requests over a small pool: every returned node must compute
  // the requested function, and the graph must keep its invariants.
  Rng rng(7);
  Graph g;
  std::vector<NodeId> pool{g.addInput("a"), g.addInput("b"),
                           g.addInput("c"), g.addConst(false),
                           g.addConst(true)};
  std::map<std::string, uint64_t> in{{"a", 0xF0F0F0F0F0F0F0F0ULL},
                                     {"b", 0xCCCCCCCCCCCCCCCCULL},
                                     {"c", 0xAAAAAAAAAAAAAAAAULL}};
  std::vector<uint64_t> expect{in["a"], in["b"], in["c"], 0, ~uint64_t{0}};
  const OpKind kinds[] = {OpKind::And, OpKind::Or, OpKind::Xor,
                          OpKind::Nand, OpKind::Nor, OpKind::Xnor,
                          OpKind::Not, OpKind::Copy};
  for (int step = 0; step < 400; ++step) {
    OpKind op = kinds[rng.below(8)];
    size_t arity = isUnary(op) ? 1 : 2 + rng.below(3);
    std::vector<NodeId> operands;
    std::vector<uint64_t> values;
    for (size_t k = 0; k < arity; ++k) {
      size_t pick = rng.below(pool.size());
      operands.push_back(pool[pick]);
      values.push_back(expect[pick]);
    }
    NodeId id = g.addOp(op, operands);
    pool.push_back(id);
    expect.push_back(evalOp(op, values));
  }
  g.validate();
  std::vector<uint64_t> got = evaluateAllWords(g, in);
  for (size_t k = 0; k < pool.size(); ++k)
    ASSERT_EQ(got[static_cast<size_t>(pool[k])], expect[k]) << "request " << k;
}

/// Adds `count` random requests (every kind, arity up to 4, operands
/// anywhere in the graph, constants and repeats included) to `g`.
void addRandomOps(Graph& g, Rng& rng, int count) {
  const OpKind kinds[] = {OpKind::And, OpKind::Or, OpKind::Xor,
                          OpKind::Nand, OpKind::Nor, OpKind::Xnor,
                          OpKind::Not, OpKind::Copy};
  for (int step = 0; step < count; ++step) {
    OpKind op = kinds[rng.below(8)];
    size_t arity = isUnary(op) ? 1 : 2 + rng.below(3);
    std::vector<NodeId> operands;
    for (size_t k = 0; k < arity; ++k)
      operands.push_back(static_cast<NodeId>(rng.below(g.numNodes())));
    g.addOp(op, std::move(operands));
  }
}

/// A graph of 64 inputs, both constants and 20k random requests: enough
/// op nodes to take the index through a dozen rehashes, unless
/// `reserve` sizes it for every request up front.
Graph randomGraph(bool reserve) {
  constexpr int kInputs = 64, kRequests = 20000;
  Graph g;
  if (reserve) g.reserve(kInputs + 2 + kRequests);
  for (int i = 0; i < kInputs; ++i) g.addInput(strCat("x", i));
  g.addConst(false);
  g.addConst(true);
  Rng rng(19);
  addRandomOps(g, rng, kRequests);
  g.markOutput(g.endId() - 1);
  return g;
}

/// Every op node of `g`, requested again with its operands reversed, is
/// found, and nothing is added; opCount() is the number of op nodes.
void expectEveryOpFound(Graph& g) {
  const size_t nodes = g.numNodes();
  size_t ops = 0;
  for (NodeId id = g.firstId(); id < g.endId(); ++id) {
    const Node& n = g.node(id);
    if (!n.isOp()) continue;
    ++ops;
    std::vector<NodeId> reversed(n.operands.rbegin(), n.operands.rend());
    ASSERT_EQ(g.addOp(n.op, std::move(reversed)), id) << "node " << id;
  }
  EXPECT_EQ(g.numNodes(), nodes);
  EXPECT_EQ(g.opCount(), ops);
  g.validate();
}

TEST(Graph, InternFindsEveryOpAcrossRehashes) {
  Graph g = randomGraph(/*reserve=*/false);
  ASSERT_GT(g.opCount(), 10000u);
  expectEveryOpFound(g);
  Graph copy = g;
  expectEveryOpFound(copy);
  Graph moved = std::move(copy);
  expectEveryOpFound(moved);
  // The original is untouched by requests to its copies.
  EXPECT_EQ(graphToText(g), graphToText(moved));
}

TEST(Graph, ReserveKeepsIds) {
  EXPECT_EQ(graphToText(randomGraph(/*reserve=*/true)),
            graphToText(randomGraph(/*reserve=*/false)));
}

// Paper Fig. 3(b)-style chain: b-level counts op nodes on the longest
// path to an exit.
TEST(Analysis, BLevelChain) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId x = g.addOp(OpKind::Xor, {a, b});   // depth 3 from exit
  NodeId y = g.addOp(OpKind::And, {x, c});   // depth 2
  NodeId z = g.addOp(OpKind::Or, {y, a});    // depth 1 (exit)
  auto levels = bLevels(g);
  EXPECT_EQ(levels[static_cast<size_t>(z)], 1);
  EXPECT_EQ(levels[static_cast<size_t>(y)], 2);
  EXPECT_EQ(levels[static_cast<size_t>(x)], 3);
  // Leaf b-level equals the max of its users (zero weight itself).
  EXPECT_EQ(levels[static_cast<size_t>(a)], 3);
  EXPECT_EQ(criticalPathLength(g), 3);
}

TEST(Analysis, BLevelSortedOpsDescending) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Or, {x, b});
  NodeId w = g.addOp(OpKind::Xor, {a, b});  // independent, level 1
  auto sorted = bLevelSortedOps(g);
  auto levels = bLevels(g);
  for (size_t i = 1; i < sorted.size(); ++i)
    EXPECT_GE(levels[static_cast<size_t>(sorted[i - 1])],
              levels[static_cast<size_t>(sorted[i])]);
  EXPECT_EQ(sorted.front(), x);
  // Equal levels tie-break by id.
  EXPECT_EQ(sorted[1], y);
  EXPECT_EQ(sorted[2], w);
}

TEST(Analysis, OperandCountHistogram) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  g.addOp(OpKind::And, {a, b});
  g.addOp(OpKind::Or, {a, b, c});
  g.addOp(OpKind::Not, {a});
  auto hist = operandCountHistogram(g);
  ASSERT_GE(hist.size(), 4u);
  EXPECT_EQ(hist[1], 1);
  EXPECT_EQ(hist[2], 1);
  EXPECT_EQ(hist[3], 1);
}

TEST(Evaluator, BasicAndMultiWidth) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::Nand, {a, b});
  g.markOutput(x);
  InputValues in;
  in.emplace("a", BitVector::fromString("1100"));
  in.emplace("b", BitVector::fromString("1010"));
  auto outs = evaluateOutputs(g, in);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].toString(), "0111");
}

TEST(Evaluator, MissingInputThrows) {
  Graph g;
  NodeId a = g.addInput("a");
  g.markOutput(a);
  InputValues in;
  in.emplace("other", BitVector(4));
  EXPECT_THROW(evaluateOutputs(g, in), Error);
}

TEST(Evaluator, WidthMismatchThrows) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  g.markOutput(g.addOp(OpKind::And, {a, b}));
  InputValues in;
  in.emplace("a", BitVector(4));
  in.emplace("b", BitVector(5));
  EXPECT_THROW(evaluateOutputs(g, in), Error);
}

TEST(Evaluator, ConstantsFollowWidth) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId ones = g.addConst(true);
  NodeId x = g.addOp(OpKind::Xor, {a, ones});  // == NOT a
  g.markOutput(x);
  InputValues in;
  in.emplace("a", BitVector::fromString("0110"));
  EXPECT_EQ(evaluateOutputs(g, in)[0].toString(), "1001");
}

TEST(Dot, ContainsNodesAndEdges) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  g.markOutput(x);
  std::string dot = toDot(g, "t");
  EXPECT_NE(dot.find("digraph t"), std::string::npos);
  EXPECT_NE(dot.find("AND"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
}

}  // namespace
}  // namespace sherlock::ir

namespace sherlock::ir {
namespace {

TEST(Analysis, TLevelsAndSlack) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId c = g.addInput("c");
  NodeId x = g.addOp(OpKind::Xor, {a, b});  // t=1, b=3 -> slack 0
  NodeId y = g.addOp(OpKind::And, {x, c});  // t=2, b=2 -> slack 0
  NodeId w = g.addOp(OpKind::Or, {a, b});   // t=1, b=2 -> slack 1
  NodeId z = g.addOp(OpKind::Or, {y, w});   // t=3, b=1 -> slack 0
  g.markOutput(z);
  auto t = tLevels(g);
  EXPECT_EQ(t[static_cast<size_t>(x)], 1);
  EXPECT_EQ(t[static_cast<size_t>(y)], 2);
  EXPECT_EQ(t[static_cast<size_t>(z)], 3);
  EXPECT_EQ(t[static_cast<size_t>(a)], 0);  // leaves carry zero weight
  auto s = slack(g);
  EXPECT_EQ(s[static_cast<size_t>(x)], 0);
  EXPECT_EQ(s[static_cast<size_t>(y)], 0);
  EXPECT_EQ(s[static_cast<size_t>(w)], 1);
  EXPECT_EQ(s[static_cast<size_t>(z)], 0);
  EXPECT_EQ(s[static_cast<size_t>(a)], -1);  // not an op
  auto crit = criticalPathOps(g);
  EXPECT_EQ(crit, (std::vector<NodeId>{x, y, z}));
}

TEST(Analysis, LevelWidths) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::And, {a, b});
  NodeId y = g.addOp(OpKind::Or, {a, b});
  g.markOutput(g.addOp(OpKind::Xor, {x, y}));
  auto widths = levelWidths(g);
  ASSERT_EQ(widths.size(), 3u);
  EXPECT_EQ(widths[1], 1);  // the Xor sink
  EXPECT_EQ(widths[2], 2);  // And + Or
}

TEST(Analysis, SlackZeroSumsToCriticalPath) {
  // On a pure chain every op is critical.
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId acc = g.addOp(OpKind::Not, {a});
  for (int i = 0; i < 5; ++i) acc = g.addOp(OpKind::Xor, {acc, b});
  g.markOutput(acc);
  EXPECT_EQ(criticalPathOps(g).size(), 6u);
  EXPECT_EQ(criticalPathLength(g), 6);
}

}  // namespace
}  // namespace sherlock::ir

namespace sherlock::ir {
namespace {

TEST(Serialize, RoundTripsStructure) {
  Graph g;
  NodeId a = g.addInput("alpha");
  NodeId b = g.addInput("beta");
  NodeId c = g.addConst(true);
  NodeId x = g.addOp(OpKind::Nand, {a, b, c});
  NodeId y = g.addOp(OpKind::Not, {x});
  g.markOutput(y);
  g.markOutput(x);

  Graph back = graphFromText(graphToText(g));
  ASSERT_EQ(back.numNodes(), g.numNodes());
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    EXPECT_EQ(back.node(i).kind, g.node(i).kind);
    EXPECT_EQ(back.node(i).operands, g.node(i).operands);
    if (g.node(i).isOp()) {
      EXPECT_EQ(back.node(i).op, g.node(i).op);
    }
    if (g.node(i).isInput()) {
      EXPECT_EQ(back.node(i).name, g.node(i).name);
    }
    if (g.node(i).isConst()) {
      EXPECT_EQ(back.node(i).constValue, g.node(i).constValue);
    }
  }
  EXPECT_EQ(back.outputs(), g.outputs());
}

TEST(Serialize, RoundTripPreservesSemantics) {
  Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId x = g.addOp(OpKind::Xor, {a, b});
  g.markOutput(g.addOp(OpKind::Nor, {x, a}));
  Graph back = graphFromText(graphToText(g));
  std::map<std::string, uint64_t> in{{"a", 0xF0F0}, {"b", 0xCCCC}};
  EXPECT_EQ(evaluateAllWords(g, in)[static_cast<size_t>(g.outputs()[0])],
            evaluateAllWords(back, in)[static_cast<size_t>(
                back.outputs()[0])]);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(graphFromText("frob x\n"), Error);
  EXPECT_THROW(graphFromText("op AND 0 1\n"), Error);   // undeclared ids
  EXPECT_THROW(graphFromText("const 2\n"), Error);
  EXPECT_THROW(graphFromText("input a\noutput 5\n"), Error);
  EXPECT_THROW(graphFromText("input a\nop NOT 0 0\n"), Error);  // arity
  // Ids that are not numbers, or overflow one, name their line and token.
  const char* badIds[][2] = {
      {"input a\nop AND a 1\n", "line 2: bad node id 'a'"},
      {"input a\noutput x\n", "line 2: bad node id 'x'"},
      {"input a\noutput 99999999999999999999\n",
       "line 2: node id 99999999999999999999 references an undeclared"}};
  for (const auto& [text, message] : badIds) {
    try {
      graphFromText(text);
      ADD_FAILURE() << "no error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, NonCanonicalTextParsesCanonical) {
  // Declaration indices stay positional even when a line folds into an
  // earlier node: op 3 is OR(a, AND(a, 0)) == a.
  Graph g = graphFromText(
      "input a\nconst 0\nop AND 0 1\nop OR 0 2\nconst 0\noutput 3\n"
      "output 4\n");
  EXPECT_EQ(g.opCount(), 0u);
  EXPECT_EQ(g.numNodes(), 2u);
  EXPECT_EQ(g.outputs(), (std::vector<NodeId>{0, 1}));
}

TEST(Serialize, IgnoresCommentsAndBlankLines) {
  Graph g = graphFromText(R"(
    # header
    input a

    input b  # trailing comment
    op AND 0 1
    output 2
  )");
  EXPECT_EQ(g.opCount(), 1u);
  EXPECT_EQ(g.outputs().size(), 1u);
}

}  // namespace
}  // namespace sherlock::ir
