// Data-flow graph (DAG) intermediate representation.
//
// Following the paper, the DAG has operand/intermediate values and
// operations. We use a unified node representation: every node *is* a
// value — Input and Const nodes are leaf operands, and each Op node
// represents one operation together with the intermediate value it
// produces. Operation nodes are unit-weighted for priority (b-level)
// computation; operand nodes and edges have zero weight.
//
// A Graph is canonical by construction. addOp simplifies every request
// with the rules below and hash-conses what is left (structural hashing,
// as AIG builders do), so the frontend, the workload builders and every
// transform emit the same canonical form without a cleanup pass:
//   * COPY(x) is x; NOT(NOT(x)) is x; NOT of a constant is a constant.
//   * Constant operands fold: identities vanish (x & 1, x | 0, x ^ 0),
//     absorbing elements decide the result (x & 0, x | 1), and x ^ 1
//     flips the parity of the op.
//   * Repeated operands fold: AND/OR are idempotent, XOR keeps each
//     operand that occurs an odd number of times (at its first position).
//   * What remains is a constant, the single remaining operand (negated
//     if the op inverts), or one op node over the remaining operands —
//     the existing node if one of the same kind over the same operand
//     set was added before.
// Hence no op node has a constant or repeated operand, no COPY node
// exists, and no two op nodes compute the same kind over the same
// operands. Unused nodes are kept; transforms::canonicalize drops them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ops.h"
#include "support/diagnostics.h"
#include "support/hash_index.h"
#include "support/inline_vector.h"

namespace sherlock::ir {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One DAG node. Plain data; owned and indexed by Graph.
struct Node {
  enum class Kind { Input, Const, Op };

  Kind kind = Kind::Input;
  OpKind op = OpKind::And;          ///< valid iff kind == Op
  std::vector<NodeId> operands;     ///< producers, in operand order
  /// Consumer op nodes, in the order they were added. Most nodes have
  /// at most two, which the list holds without a heap block.
  InlineVector<NodeId, 2> users;
  std::string name;                 ///< input name; "ones"/"zeros" if Const
  bool constValue = false;          ///< valid iff kind == Const

  bool isOp() const { return kind == Kind::Op; }
  bool isInput() const { return kind == Kind::Input; }
  bool isConst() const { return kind == Kind::Const; }
};

/// A directed acyclic data-flow graph of bulk-bitwise operations.
///
/// Nodes are created append-only; operands must already exist when an op
/// is added, which guarantees acyclicity by construction and makes node
/// ids a valid topological order.
class Graph {
 public:
  /// Adds a named external input operand.
  NodeId addInput(std::string name);

  /// The constant operand (all-zeros or all-ones bulk value); the graph
  /// holds at most one node per value.
  NodeId addConst(bool value);

  /// Returns the node computing `op` over `operands` under the rules in
  /// the file comment: an existing node, or a new one appended. Operand
  /// ids must be < endId(). Unary ops require exactly one operand; others
  /// at least two.
  NodeId addOp(OpKind op, std::vector<NodeId> operands);

  /// Appends a node to the ordered output list (kept live by transforms).
  /// The list preserves position and multiplicity.
  void markOutput(NodeId id);

  /// Makes room for `nodes` nodes in the node list and the op index, so a
  /// graph rebuilt from one of that size neither reallocates nor rehashes.
  /// Ids and every later result are the same as without it.
  void reserve(size_t nodes);

  const Node& node(NodeId id) const {
    SHERLOCK_ASSERT(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
                    "node id ", id, " out of range");
    return nodes_[static_cast<size_t>(id)];
  }

  size_t numNodes() const { return nodes_.size(); }
  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// Number of operation nodes.
  size_t opCount() const { return index_.size(); }
  /// Number of Input nodes.
  size_t inputCount() const;
  /// Total operand + intermediate values = all nodes (each node is a value).
  size_t valueCount() const { return nodes_.size(); }

  /// All node ids of Op kind, in id (topological) order.
  std::vector<NodeId> opNodes() const;
  /// All node ids of Input kind, in id order.
  std::vector<NodeId> inputNodes() const;

  /// Verifies structural invariants (operand ordering, arity, user lists,
  /// output validity, and the canonical-form guarantees above, sharing
  /// included: every op node is the one the index holds for its kind and
  /// operand set). Throws IRError on violation.
  void validate() const;

  /// Ids are assigned contiguously, so iteration is by index.
  NodeId firstId() const { return 0; }
  NodeId endId() const { return static_cast<NodeId>(nodes_.size()); }

 private:
  NodeId append(Node node);
  /// NOT(x) under the unary rules.
  NodeId negate(NodeId x);
  /// The op node of kind `op` over the distinct, non-constant `operands`:
  /// the structurally equal node if one exists, else a new one.
  NodeId intern(OpKind op, std::vector<NodeId> operands);

  std::vector<Node> nodes_;
  std::vector<NodeId> outputs_;
  NodeId consts_[2] = {kInvalidNode, kInvalidNode};
  /// Every op node, filed under a hash of (kind, operand set).
  HashIndex index_;
};

}  // namespace sherlock::ir
