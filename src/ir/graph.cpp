#include "ir/graph.h"

#include <algorithm>
#include <utility>

#include "support/parallel.h"  // splitmix64

namespace sherlock::ir {

namespace {

/// Hash of (kind, operand set), the index's key. Operands combine by a
/// commutative sum so that operand order does not matter.
uint32_t structuralHash(OpKind op, const std::vector<NodeId>& operands) {
  uint64_t h = splitmix64(static_cast<uint64_t>(op) + 1);
  for (NodeId o : operands) h += splitmix64(static_cast<uint64_t>(o) + 17);
  return static_cast<uint32_t>(splitmix64(h));
}

/// `n` is an op of kind `op` over the same operand set. Both operand
/// lists hold distinct ids, so equal sizes plus containment suffice.
bool sameOp(const Node& n, OpKind op, const std::vector<NodeId>& operands) {
  if (n.op != op || n.operands.size() != operands.size()) return false;
  for (NodeId o : n.operands)
    if (std::find(operands.begin(), operands.end(), o) == operands.end())
      return false;
  return true;
}

}  // namespace

NodeId Graph::append(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Graph::addInput(std::string name) {
  Node n;
  n.kind = Node::Kind::Input;
  n.name = std::move(name);
  return append(std::move(n));
}

NodeId Graph::addConst(bool value) {
  NodeId& slot = consts_[value];
  if (slot == kInvalidNode) {
    Node n;
    n.kind = Node::Kind::Const;
    n.constValue = value;
    n.name = value ? "ones" : "zeros";
    slot = append(std::move(n));
  }
  return slot;
}

NodeId Graph::addOp(OpKind op, std::vector<NodeId> operands) {
  // Every transform builds through here, so the error messages are only
  // formatted on failure.
  NodeId next = endId();
  if (isUnary(op) ? operands.size() != 1 : operands.size() < 2)
    throw Error(strCat(opName(op), isUnary(op)
                                       ? " requires exactly one operand"
                                       : " requires at least two operands"));
  for (NodeId o : operands)
    if (o < 0 || o >= next)
      throw Error(strCat("operand id ", o, " invalid for new node ", next));

  if (op == OpKind::Copy) return operands[0];
  if (op == OpKind::Not) return negate(operands[0]);

  bool plain = true;  // no constant and no repeated operand
  for (auto it = operands.begin(); plain && it != operands.end(); ++it)
    plain = *it != consts_[0] && *it != consts_[1] &&
            std::find(operands.begin(), it, *it) == it;
  if (plain) return intern(op, std::move(operands));

  const OpKind base = baseOp(op);
  const bool invert = isInverted(op);
  // Fold the constants into `acc` (starting at the base op's identity)
  // and collect the distinct remaining operands in first-occurrence
  // order; `odd` tracks each one's multiplicity parity for XOR.
  bool acc = base == OpKind::And;
  std::vector<NodeId> rest;
  std::vector<bool> odd;
  for (NodeId o : operands) {
    const Node& n = node(o);
    if (n.isConst()) {
      switch (base) {
        case OpKind::And: acc = acc && n.constValue; break;
        case OpKind::Or: acc = acc || n.constValue; break;
        default: acc = acc != n.constValue; break;
      }
      continue;
    }
    auto seen = std::find(rest.begin(), rest.end(), o);
    if (seen == rest.end()) {
      rest.push_back(o);
      odd.push_back(true);
    } else {
      odd[static_cast<size_t>(seen - rest.begin())].flip();
    }
  }
  if (base == OpKind::Xor) {
    size_t kept = 0;
    for (size_t i = 0; i < rest.size(); ++i)
      if (odd[i]) rest[kept++] = rest[i];
    rest.resize(kept);
  }
  bool absorbing = (base == OpKind::And && !acc) ||
                   (base == OpKind::Or && acc);
  if (absorbing || rest.empty()) return addConst(acc != invert);
  // Identity constants vanished; an odd number of XOR ones is one more
  // inversion (e.g. XNOR(x, 1) == x).
  bool negated = invert != (base == OpKind::Xor && acc);
  if (rest.size() == 1)
    return negated ? negate(rest[0]) : rest[0];
  return intern(negated ? complementOp(base) : base, std::move(rest));
}

NodeId Graph::negate(NodeId x) {
  const Node& n = node(x);
  if (n.isConst()) return addConst(!n.constValue);
  if (n.isOp() && n.op == OpKind::Not) return n.operands[0];
  return intern(OpKind::Not, {x});
}

NodeId Graph::intern(OpKind op, std::vector<NodeId> operands) {
  auto same = [&](NodeId id) {
    return sameOp(nodes_[static_cast<size_t>(id)], op, operands);
  };
  auto make = [&] {
    Node n;
    n.kind = Node::Kind::Op;
    n.op = op;
    n.operands = std::move(operands);
    NodeId id = append(std::move(n));
    // Operands are distinct, so each producer gains this user once.
    for (NodeId o : nodes_.back().operands)
      nodes_[static_cast<size_t>(o)].users.push_back(id);
    return id;
  };
  return index_.findOrInsert(structuralHash(op, operands), same, make);
}

void Graph::reserve(size_t nodes) {
  nodes_.reserve(nodes);
  index_.reserve(nodes);
}

void Graph::markOutput(NodeId id) {
  checkArg(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
           "output id ", id, " out of range");
  // Outputs are an ordered list and may repeat: rewrites can alias two
  // distinct outputs to one node, and consumers (e.g. bit-sliced state
  // unpacking) rely on position.
  outputs_.push_back(id);
}

size_t Graph::inputCount() const {
  return static_cast<size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& n) { return n.isInput(); }));
}

std::vector<NodeId> Graph::opNodes() const {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < endId(); ++i)
    if (nodes_[static_cast<size_t>(i)].isOp()) ids.push_back(i);
  return ids;
}

std::vector<NodeId> Graph::inputNodes() const {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < endId(); ++i)
    if (nodes_[static_cast<size_t>(i)].isInput()) ids.push_back(i);
  return ids;
}

void Graph::validate() const {
  size_t ops = 0;
  for (NodeId i = 0; i < endId(); ++i) {
    const Node& n = nodes_[static_cast<size_t>(i)];
    if (n.isOp()) {
      ++ops;
      if (isUnary(n.op) && n.operands.size() != 1)
        throw IRError(strCat("node ", i, ": ", opName(n.op),
                             " must have one operand"));
      if (!isUnary(n.op) && n.operands.size() < 2)
        throw IRError(strCat("node ", i, ": ", opName(n.op),
                             " must have >= 2 operands"));
      if (n.op == OpKind::Copy)
        throw IRError(strCat("node ", i, ": COPY node in a canonical graph"));
      for (NodeId o : n.operands) {
        if (o < 0 || o >= i)
          throw IRError(strCat("node ", i, ": operand ", o,
                               " violates topological id order"));
        const Node& prod = nodes_[static_cast<size_t>(o)];
        if (prod.isConst())
          throw IRError(strCat("node ", i, ": constant operand ", o));
        if (std::count(n.operands.begin(), n.operands.end(), o) != 1)
          throw IRError(strCat("node ", i, ": repeated operand ", o));
        if (std::find(prod.users.begin(), prod.users.end(), i) ==
            prod.users.end())
          throw IRError(
              strCat("node ", o, ": missing user entry for node ", i));
      }
      auto same = [&](NodeId id) {
        return sameOp(nodes_[static_cast<size_t>(id)], n.op, n.operands);
      };
      if (index_.find(structuralHash(n.op, n.operands), same) != i)
        throw IRError(strCat("node ", i, ": ", opName(n.op),
                             " is not the indexed node for its operands"));
    } else {
      if (!n.operands.empty())
        throw IRError(strCat("leaf node ", i, " has operands"));
    }
    for (NodeId u : n.users) {
      if (u <= i || u >= endId())
        throw IRError(strCat("node ", i, ": invalid user id ", u));
      const Node& user = nodes_[static_cast<size_t>(u)];
      if (!user.isOp() ||
          std::find(user.operands.begin(), user.operands.end(), i) ==
              user.operands.end())
        throw IRError(
            strCat("node ", i, ": stale user entry for node ", u));
    }
  }
  if (ops != index_.size())
    throw IRError(strCat("index holds ", index_.size(), " op nodes, graph ",
                         ops));
  for (NodeId out : outputs_)
    if (out < 0 || out >= endId())
      throw IRError(strCat("invalid output id ", out));
}

}  // namespace sherlock::ir
