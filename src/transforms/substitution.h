// Node substitution (paper Sec. 3.3.3): when an associative op node's
// output is used exactly once, by an op with the same base operation, the
// two nodes can be replaced by a single node with the union of their
// operands. On scouting-logic hardware the merged node executes as ONE
// multi-row activation (MRA): fewer instructions and lower latency, but a
// smaller sense margin and hence higher decision-failure probability.
//
// The `fraction` knob bounds how many merge opportunities are applied; it
// is the sweep variable of the paper's Fig. 6 reliability/latency
// trade-off study.
#pragma once

#include <cstddef>

#include "ir/graph.h"

namespace sherlock::transforms {

/// Order in which merge opportunities are considered.
enum class MergeOrder {
  /// Descending producer b-level (deepest chains first). This choice is
  /// independent of mapping decisions — the flow used with the naive
  /// mapper, which yields the paper's near-linear Fig. 6 curve.
  ByPriority,
  /// Descending critical-path impact (producer-minus-consumer priority
  /// gap), the choice coupled to the optimized mapper's clustering
  /// heuristics; interacts with instruction merging and yields the
  /// irregular Fig. 6 curve.
  ByAffinity,
};

struct SubstitutionOptions {
  /// Maximum operands of a merged node = maximum simultaneously activated
  /// rows the target supports.
  int maxOperands = 4;
  /// Fraction of merge opportunities to apply, in [0, 1]. 0 keeps the
  /// original 2-operand DAG; 1 merges everything that fits maxOperands.
  double fraction = 1.0;
  MergeOrder order = MergeOrder::ByPriority;
};

struct SubstitutionStats {
  size_t candidates = 0;    ///< merge opportunities found
  size_t applied = 0;       ///< merges actually performed
  size_t totalOps = 0;      ///< op nodes in the resulting graph
  size_t wideOps = 0;       ///< resulting ops with > 2 operands
  /// Fraction of resulting ops using MRA with > 2 operands (the number
  /// annotated on the paper's Fig. 6 data points).
  double wideFraction() const {
    return totalOps == 0 ? 0.0
                         : static_cast<double>(wideOps) /
                               static_cast<double>(totalOps);
  }
};

struct SubstitutionResult {
  ir::Graph graph;
  SubstitutionStats stats;
};

/// Applies node substitution to `g` under `options`. Exact semantics are
/// preserved: operands that flattening repeats fold by the graph's rules
/// (And/Or keep one, Xor cancels pairs; see ir/graph.h).
SubstitutionResult substituteNodes(const ir::Graph& g,
                                   const SubstitutionOptions& options);

}  // namespace sherlock::transforms
