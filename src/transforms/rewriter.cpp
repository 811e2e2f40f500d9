#include "transforms/rewriter.h"

namespace sherlock::transforms {

using ir::Node;
using ir::NodeId;

NodeId Rewriter::cloneNode(NodeId id) {
  const Node& n = source_.node(id);
  NodeId copy = ir::kInvalidNode;
  switch (n.kind) {
    case Node::Kind::Input:
      copy = dest_.addInput(n.name);
      break;
    case Node::Kind::Const:
      copy = dest_.addConst(n.constValue);
      break;
    case Node::Kind::Op: {
      std::vector<NodeId> ops;
      ops.reserve(n.operands.size());
      for (NodeId o : n.operands) ops.push_back(lookup(o));
      copy = dest_.addOp(n.op, std::move(ops));
      break;
    }
  }
  mapping_[static_cast<size_t>(id)] = copy;
  return copy;
}

void Rewriter::mapTo(NodeId id, NodeId replacement) {
  SHERLOCK_ASSERT(replacement >= 0 && replacement < dest_.endId(),
                  "replacement id ", replacement, " not in destination");
  mapping_[static_cast<size_t>(id)] = replacement;
}

NodeId Rewriter::lookup(NodeId id) const {
  SHERLOCK_ASSERT(id >= 0 && static_cast<size_t>(id) < mapping_.size(),
                  "source id ", id, " out of range");
  NodeId m = mapping_[static_cast<size_t>(id)];
  SHERLOCK_ASSERT(m != ir::kInvalidNode, "source node ", id,
                  " has no destination mapping");
  return m;
}

void Rewriter::carryOutputs() {
  for (NodeId out : source_.outputs()) dest_.markOutput(lookup(out));
}

}  // namespace sherlock::transforms
