// Utility for building a new Graph from an existing one while remapping
// node ids. All transform passes are functional: they return a fresh graph
// and never mutate their input.
#pragma once

#include <vector>

#include "ir/graph.h"

namespace sherlock::transforms {

/// Incrementally clones nodes of a source graph into a destination graph.
/// Passes decide per node whether to copy it (`cloneNode`) or to emit
/// replacement nodes and record the mapping (`mapTo`). The destination is
/// an ir::Graph, so whatever a pass emits comes out folded and shared. It
/// is reserved for the source's node count, which bounds what the
/// copying and merging passes emit.
class Rewriter {
 public:
  explicit Rewriter(const ir::Graph& source)
      : source_(source), mapping_(source.numNodes(), ir::kInvalidNode) {
    dest_.reserve(source.numNodes());
  }

  /// Copies `id` (with operands remapped) into the destination graph and
  /// records the mapping. Operands must already be mapped.
  ir::NodeId cloneNode(ir::NodeId id);

  /// Records that source node `id` is represented by destination node
  /// `replacement` without copying anything.
  void mapTo(ir::NodeId id, ir::NodeId replacement);

  /// Destination id for a source id; throws if the node was skipped.
  ir::NodeId lookup(ir::NodeId id) const;

  /// Marks the destination images of the source graph's outputs.
  void carryOutputs();

  ir::Graph& dest() { return dest_; }

  /// Finalizes and returns the destination graph.
  ir::Graph take() && { return std::move(dest_); }

 private:
  const ir::Graph& source_;
  ir::Graph dest_;
  std::vector<ir::NodeId> mapping_;
};

}  // namespace sherlock::transforms
