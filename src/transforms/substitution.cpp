#include "transforms/substitution.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ir/analysis.h"
#include "support/trace.h"
#include "transforms/rewriter.h"

namespace sherlock::transforms {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;

namespace {

/// Disjoint-set over op nodes tracking the effective operand count of each
/// merged component. The representative is always the absorbing (consumer)
/// side, i.e. the node that survives in the rewritten graph.
class MergeForest {
 public:
  explicit MergeForest(const Graph& g)
      : parent_(g.numNodes()), size_(g.numNodes(), 0) {
    for (NodeId i = g.firstId(); i < g.endId(); ++i) {
      parent_[static_cast<size_t>(i)] = i;
      const Node& n = g.node(i);
      if (n.isOp()) size_[static_cast<size_t>(i)] =
          static_cast<int>(n.operands.size());
    }
  }

  NodeId find(NodeId x) const {
    while (parent_[static_cast<size_t>(x)] != x)
      x = parent_[static_cast<size_t>(x)];
    return x;
  }

  int effectiveSize(NodeId x) const { return size_[static_cast<size_t>(find(x))]; }

  /// Absorbs producer `p` (a component root) into consumer `c`'s component.
  void absorb(NodeId p, NodeId c) {
    NodeId rootC = find(c);
    NodeId rootP = find(p);
    SHERLOCK_ASSERT(rootP == p, "producer must be its component root");
    SHERLOCK_ASSERT(rootC != rootP, "merge would form a cycle");
    parent_[static_cast<size_t>(rootP)] = rootC;
    // The edge p->c is replaced by p's operands.
    size_[static_cast<size_t>(rootC)] +=
        size_[static_cast<size_t>(rootP)] - 1;
  }

  bool isAbsorbed(NodeId x) const {
    return parent_[static_cast<size_t>(x)] != x;
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<int> size_;
};

struct Candidate {
  NodeId producer;  ///< the node to be absorbed
  NodeId consumer;  ///< its unique user
};

}  // namespace

SubstitutionResult substituteNodes(const Graph& g,
                                   const SubstitutionOptions& options) {
  trace::Span span("transforms", "substitution");
  checkArg(options.maxOperands >= 2, "maxOperands must be >= 2");
  checkArg(options.fraction >= 0.0 && options.fraction <= 1.0,
           "fraction must be in [0, 1]");

  auto levels = ir::bLevels(g);
  std::vector<bool> isOutput(g.numNodes(), false);
  for (NodeId out : g.outputs()) isOutput[static_cast<size_t>(out)] = true;

  // Enumerate merge opportunities: single-use associative producers feeding
  // a same-base consumer.
  std::vector<Candidate> candidates;
  for (NodeId p = g.firstId(); p < g.endId(); ++p) {
    const Node& prod = g.node(p);
    if (!prod.isOp() || !ir::isSubstitutable(prod.op)) continue;
    if (isOutput[static_cast<size_t>(p)]) continue;
    if (prod.users.size() != 1) continue;
    NodeId c = prod.users[0];
    const Node& cons = g.node(c);
    if (ir::baseOp(cons.op) != prod.op) continue;
    candidates.push_back({p, c});
  }

  // Deterministic application order (the Fig. 6 flow knob).
  std::stable_sort(
      candidates.begin(), candidates.end(),
      [&](const Candidate& a, const Candidate& b) {
        auto keyOf = [&](const Candidate& x) {
          int lp = levels[static_cast<size_t>(x.producer)];
          int lc = levels[static_cast<size_t>(x.consumer)];
          return options.order == MergeOrder::ByPriority ? lp : lp - lc;
        };
        int ka = keyOf(a), kb = keyOf(b);
        if (ka != kb) return ka > kb;
        return a.producer < b.producer;
      });

  size_t allowed = static_cast<size_t>(
      std::llround(options.fraction * static_cast<double>(candidates.size())));

  MergeForest forest(g);
  SubstitutionStats stats;
  stats.candidates = candidates.size();
  for (const Candidate& cand : candidates) {
    if (stats.applied >= allowed) break;
    int merged = forest.effectiveSize(cand.consumer) +
                 forest.effectiveSize(cand.producer) - 1;
    if (merged > options.maxOperands) continue;
    forest.absorb(cand.producer, cand.consumer);
    stats.applied++;
  }

  // Rebuild: every surviving op node splices in the operand lists of the
  // producers absorbed into its component. Flattening can repeat an
  // operand; the graph folds repeats exactly (AND/OR keep one, XOR
  // cancels pairs).
  Rewriter rw(g);
  std::vector<NodeId> stack;
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    if (!n.isOp() || ir::isUnary(n.op)) {
      // Leaves and unary ops never participate in merging.
      rw.cloneNode(i);
      continue;
    }
    if (forest.isAbsorbed(i)) continue;  // spliced into its consumer

    // Flatten the component rooted at i in source-operand order. Its
    // effective size is exactly the number of operands that come out.
    std::vector<NodeId> flat;
    flat.reserve(static_cast<size_t>(forest.effectiveSize(i)));
    stack.assign(n.operands.rbegin(), n.operands.rend());
    while (!stack.empty()) {
      NodeId o = stack.back();
      stack.pop_back();
      if (g.node(o).isOp() && forest.isAbsorbed(o) &&
          forest.find(o) == i) {
        const auto& inner = g.node(o).operands;
        stack.insert(stack.end(), inner.rbegin(), inner.rend());
      } else {
        flat.push_back(rw.lookup(o));
      }
    }
    rw.mapTo(i, rw.dest().addOp(n.op, std::move(flat)));
  }
  rw.carryOutputs();

  SubstitutionResult res{std::move(rw).take(), stats};
  for (NodeId i = res.graph.firstId(); i < res.graph.endId(); ++i) {
    const Node& n = res.graph.node(i);
    if (!n.isOp()) continue;
    res.stats.totalOps++;
    if (n.operands.size() > 2) res.stats.wideOps++;
  }
  return res;
}

}  // namespace sherlock::transforms
