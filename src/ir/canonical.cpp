#include "ir/canonical.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "ir/serialize.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace sherlock::ir {

namespace {

/// Order-sensitive accumulate of one value into a running color. The
/// callers feed values in a canonical (sorted) order, so the sequence
/// dependence is harmless and buys better mixing than xor-folding.
uint64_t mix(uint64_t h, uint64_t v) { return splitmix64(h ^ v); }

/// True for ops whose operand order is semantically irrelevant. Every
/// multi-operand scouting op (AND/OR/XOR and their inversions) is
/// symmetric; only the unary ops have a single fixed slot.
bool commutative(const Node& n) {
  return n.isOp() && !isUnary(n.op);
}

}  // namespace

CanonicalForm canonicalForm(const Graph& g) {
  trace::Span span("ir", "canonical_form");
  const size_t n = g.numNodes();
  std::vector<uint64_t> color(n), next(n);

  // Exact isomorphism-invariant seeds: depth (longest operand chain
  // below the node) and height (longest user chain above it). These
  // separate chain positions immediately, so the bounded refinement
  // below only has to resolve local symmetry, not propagate distance.
  std::vector<int> depth(n, 0), height(n, 0);
  for (NodeId id = g.firstId(); id < g.endId(); ++id)
    for (NodeId o : g.node(id).operands)
      depth[static_cast<size_t>(id)] =
          std::max(depth[static_cast<size_t>(id)],
                   depth[static_cast<size_t>(o)] + 1);
  for (NodeId id = g.endId(); id-- > g.firstId();)
    for (NodeId u : g.node(id).users)
      height[static_cast<size_t>(id)] =
          std::max(height[static_cast<size_t>(id)],
                   height[static_cast<size_t>(u)] + 1);

  // Output positions are part of the interface: the k-th output must
  // stay the k-th output, so fold each node's output indices into its
  // seed color.
  std::vector<uint64_t> outputSeed(n, 0x6f757470ULL);
  for (size_t k = 0; k < g.outputs().size(); ++k)
    outputSeed[static_cast<size_t>(g.outputs()[k])] =
        mix(outputSeed[static_cast<size_t>(g.outputs()[k])], k + 1);

  for (NodeId id = g.firstId(); id < g.endId(); ++id) {
    const Node& node = g.node(id);
    const size_t i = static_cast<size_t>(id);
    uint64_t h = 0x5348u;  // namespace tag
    switch (node.kind) {
      case Node::Kind::Input:
        h = mix(h, 0x11);  // names intentionally excluded (alpha-blind)
        break;
      case Node::Kind::Const:
        h = mix(mix(h, 0x22), node.constValue ? 1 : 0);
        break;
      case Node::Kind::Op:
        h = mix(mix(mix(h, 0x33), static_cast<uint64_t>(node.op)),
                node.operands.size());
        break;
    }
    h = mix(h, static_cast<uint64_t>(depth[i]));
    h = mix(h, static_cast<uint64_t>(height[i]));
    h = mix(h, outputSeed[i]);
    color[i] = h;
  }

  // Weisfeiler–Leman refinement over both edge directions. Operand and
  // user colors are sorted before folding, which is exactly what makes
  // the result commutation- and numbering-invariant. A handful of
  // rounds suffices because the depth/height seeds already encode
  // global position.
  int rounds = 8;
  for (size_t m = n; m > 1; m >>= 1) ++rounds;
  std::vector<uint64_t> scratch;
  for (int round = 0; round < rounds; ++round) {
    for (NodeId id = g.firstId(); id < g.endId(); ++id) {
      const Node& node = g.node(id);
      const size_t i = static_cast<size_t>(id);
      uint64_t h = mix(color[i], 0xa1);
      scratch.clear();
      for (NodeId o : node.operands)
        scratch.push_back(color[static_cast<size_t>(o)]);
      if (commutative(node)) std::sort(scratch.begin(), scratch.end());
      for (uint64_t c : scratch) h = mix(h, c);
      scratch.clear();
      for (NodeId u : node.users)
        scratch.push_back(color[static_cast<size_t>(u)]);
      std::sort(scratch.begin(), scratch.end());
      h = mix(h, 0xb2);
      for (uint64_t c : scratch) h = mix(h, c);
      next[i] = h;
    }
    color.swap(next);
  }

  // Canonical emission: Kahn's algorithm where the ready set is ordered
  // by (color, original id). For isomorphic inputs the colors are
  // id-independent, and genuinely automorphic twins share a color, so
  // either emission order serializes to the same bytes. Operands are
  // distinct (ir::Graph folds repeats), so each one releases its user once.
  // The ready set is a min-heap; its pairs are distinct (ids are), so it
  // pops in exactly the ascending order of a sorted set.
  std::vector<size_t> pendingOperands(n, 0);
  std::priority_queue<std::pair<uint64_t, NodeId>,
                      std::vector<std::pair<uint64_t, NodeId>>,
                      std::greater<>>
      ready;
  for (NodeId id = g.firstId(); id < g.endId(); ++id) {
    pendingOperands[static_cast<size_t>(id)] = g.node(id).operands.size();
    if (g.node(id).operands.empty())
      ready.emplace(color[static_cast<size_t>(id)], id);
  }

  CanonicalForm out;
  out.graph.reserve(n);
  std::vector<NodeId> remap(n, kInvalidNode);
  size_t nextInput = 0;
  while (!ready.empty()) {
    NodeId id = ready.top().second;
    ready.pop();
    const Node& node = g.node(id);
    NodeId mapped = kInvalidNode;
    switch (node.kind) {
      case Node::Kind::Input:
        mapped = out.graph.addInput(strCat("i", nextInput++));
        out.inputNames.push_back(node.name);
        break;
      case Node::Kind::Const:
        mapped = out.graph.addConst(node.constValue);
        break;
      case Node::Kind::Op: {
        std::vector<NodeId> operands;
        operands.reserve(node.operands.size());
        for (NodeId o : node.operands)
          operands.push_back(remap[static_cast<size_t>(o)]);
        if (commutative(node))
          std::sort(operands.begin(), operands.end());
        mapped = out.graph.addOp(node.op, std::move(operands));
        break;
      }
    }
    remap[static_cast<size_t>(id)] = mapped;
    for (NodeId u : node.users)
      if (--pendingOperands[static_cast<size_t>(u)] == 0)
        ready.emplace(color[static_cast<size_t>(u)], u);
  }
  for (NodeId o : g.outputs())
    out.graph.markOutput(remap[static_cast<size_t>(o)]);
  out.graph.validate();

  // Two independent 64-bit streams over the canonical bytes: FNV-1a and
  // a splitmix chain. Keying the cache on the pair makes an accidental
  // cross-kernel collision a 2^-128 event.
  const std::string text = graphToText(out.graph);
  uint64_t lo = 14695981039346656037ULL;
  uint64_t hi = 0x53c5f3a8d1e4b2c7ULL;
  for (unsigned char c : text) {
    lo = (lo ^ c) * 1099511628211ULL;
    hi = splitmix64(hi ^ c);
  }
  out.hashLo = lo;
  out.hashHi = hi;
  return out;
}

std::string CanonicalForm::fingerprint() const {
  static const char* digits = "0123456789abcdef";
  std::string s(33, '.');
  for (int i = 0; i < 16; ++i) {
    s[static_cast<size_t>(i)] = digits[(hashHi >> (60 - 4 * i)) & 0xf];
    s[static_cast<size_t>(17 + i)] = digits[(hashLo >> (60 - 4 * i)) & 0xf];
  }
  return s;
}

}  // namespace sherlock::ir
