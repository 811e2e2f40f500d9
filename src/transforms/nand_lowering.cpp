#include "transforms/nand_lowering.h"

#include <vector>

#include "support/trace.h"
#include "transforms/rewriter.h"

namespace sherlock::transforms {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;

namespace {

/// Emits the 2-input XOR NAND network; returns {xor, and2} where and2 is
/// the inner NAND pair usable for the XNOR variant.
NodeId emitXor2(Graph& dest, NodeId a, NodeId b, bool inverted) {
  NodeId t = dest.addOp(OpKind::Nand, {a, b});
  NodeId u = dest.addOp(OpKind::Nand, {a, t});
  NodeId v = dest.addOp(OpKind::Nand, {b, t});
  return dest.addOp(inverted ? OpKind::And : OpKind::Nand, {u, v});
}

/// Lowers a k-input XOR (or XNOR when `inverted`) via a balanced tree of
/// 2-input lowered XORs.
NodeId emitXorTree(Graph& dest, std::vector<NodeId> xs, bool inverted) {
  SHERLOCK_ASSERT(xs.size() >= 2, "xor tree needs >= 2 operands");
  while (xs.size() > 2) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < xs.size(); i += 2)
      next.push_back(emitXor2(dest, xs[i], xs[i + 1], /*inverted=*/false));
    if (xs.size() % 2 == 1) next.push_back(xs.back());
    xs = std::move(next);
  }
  return emitXor2(dest, xs[0], xs[1], inverted);
}

}  // namespace

Graph lowerToNand(const Graph& g) {
  trace::Span span("transforms", "nand_lowering");
  Rewriter rw(g);
  Graph& dest = rw.dest();

  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    if (!n.isOp()) {
      rw.cloneNode(i);
      continue;
    }
    std::vector<NodeId> ops;
    ops.reserve(n.operands.size());
    for (NodeId o : n.operands) ops.push_back(rw.lookup(o));

    switch (n.op) {
      case OpKind::And:
      case OpKind::Nand:
      case OpKind::Not:
      case OpKind::Copy:
        rw.cloneNode(i);
        break;
      case OpKind::Or:
      case OpKind::Nor: {
        std::vector<NodeId> inverted;
        inverted.reserve(ops.size());
        for (NodeId o : ops) inverted.push_back(dest.addOp(OpKind::Not, {o}));
        OpKind k = n.op == OpKind::Or ? OpKind::Nand : OpKind::And;
        rw.mapTo(i, dest.addOp(k, std::move(inverted)));
        break;
      }
      case OpKind::Xor:
      case OpKind::Xnor:
        rw.mapTo(i, emitXorTree(dest, std::move(ops),
                                n.op == OpKind::Xnor));
        break;
    }
  }
  rw.carryOutputs();
  return std::move(rw).take();
}

bool isNandOnly(const Graph& g) {
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    if (!n.isOp()) continue;
    switch (n.op) {
      case OpKind::And:
      case OpKind::Nand:
      case OpKind::Not:
      case OpKind::Copy:
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace sherlock::transforms
