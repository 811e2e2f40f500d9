#include "transforms/passes.h"

#include <optional>
#include <vector>

#include "support/trace.h"
#include "transforms/rewriter.h"

namespace sherlock::transforms {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;

Graph canonicalize(const Graph& g) {
  trace::Span span("transforms", "canonicalize");
  std::vector<bool> live(g.numNodes(), false);
  std::vector<NodeId> stack(g.outputs().begin(), g.outputs().end());
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    if (live[static_cast<size_t>(id)]) continue;
    live[static_cast<size_t>(id)] = true;
    for (NodeId o : g.node(id).operands) stack.push_back(o);
  }

  Rewriter rw(g);
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    if (n.isInput() || live[static_cast<size_t>(i)]) rw.cloneNode(i);
  }
  rw.carryOutputs();
  return std::move(rw).take();
}

namespace {

/// De Morgan dual: f(NOT x1, .., NOT xk) == dual(x1, .., xk).
std::optional<OpKind> deMorganDual(OpKind op) {
  switch (op) {
    case OpKind::And: return OpKind::Nor;
    case OpKind::Or: return OpKind::Nand;
    case OpKind::Nand: return OpKind::Or;
    case OpKind::Nor: return OpKind::And;
    default: return std::nullopt;
  }
}

}  // namespace

Graph foldInverters(const Graph& g) {
  trace::Span span("transforms", "fold_inverters");
  Rewriter rw(g);
  Graph& dest = rw.dest();

  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    if (!n.isOp()) {
      rw.cloneNode(i);
      continue;
    }

    if (n.op == OpKind::Not) {
      const Node& md = dest.node(rw.lookup(n.operands[0]));
      // NOT over a single-use logic op becomes the inverted-kind op. The
      // single-use gate (on the source) avoids duplicating shared logic;
      // the rewrite itself must use the destination node's actual kind
      // (earlier rules may already have flipped it).
      const Node& src = g.node(n.operands[0]);
      if (src.isOp() && src.users.size() == 1 && md.isOp() &&
          !ir::isUnary(md.op)) {
        rw.mapTo(i, dest.addOp(ir::complementOp(md.op), md.operands));
        continue;
      }
      rw.cloneNode(i);  // the graph collapses NOT(NOT(x)) itself
      continue;
    }

    std::vector<NodeId> mapped;
    mapped.reserve(n.operands.size());
    for (NodeId o : n.operands) mapped.push_back(rw.lookup(o));

    auto strippedOf = [&](NodeId m) -> std::optional<NodeId> {
      const Node& md = dest.node(m);
      if (md.isOp() && md.op == OpKind::Not) return md.operands[0];
      return std::nullopt;
    };

    if (n.op == OpKind::Xor || n.op == OpKind::Xnor) {
      // Strip NOT operands; each strip flips the parity.
      bool flip = n.op == OpKind::Xnor;
      std::vector<NodeId> ops;
      for (NodeId m : mapped) {
        if (auto inner = strippedOf(m)) {
          ops.push_back(*inner);
          flip = !flip;
        } else {
          ops.push_back(m);
        }
      }
      rw.mapTo(i, dest.addOp(flip ? OpKind::Xnor : OpKind::Xor,
                             std::move(ops)));
      continue;
    }

    if (auto dual = deMorganDual(n.op)) {
      bool allNots = true;
      std::vector<NodeId> stripped;
      for (NodeId m : mapped) {
        auto inner = strippedOf(m);
        if (!inner) {
          allNots = false;
          break;
        }
        stripped.push_back(*inner);
      }
      if (allNots) {
        rw.mapTo(i, dest.addOp(*dual, std::move(stripped)));
        continue;
      }
    }

    rw.mapTo(i, dest.addOp(n.op, std::move(mapped)));
  }
  rw.carryOutputs();
  return canonicalize(std::move(rw).take());
}

}  // namespace sherlock::transforms
