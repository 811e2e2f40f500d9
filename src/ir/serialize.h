// Plain-text DAG serialization, for persisting compiled kernels and
// exchanging DAGs with external tooling. Line-oriented format:
//
//   # sherlock-dag v1
//   input <name>
//   const <0|1>
//   op <MNEMONIC> <id> <id> ...
//   output <id>
//
// Node ids are implicit line-declaration indices (0-based); `output`
// lines may appear anywhere after the referenced node and repeat.
#pragma once

#include <string>

#include "ir/graph.h"

namespace sherlock::ir {

/// Serializes the graph (inverse of graphFromText).
std::string graphToText(const Graph& g);

/// Parses the serialized form; throws Error on malformed input. Nodes are
/// rebuilt through Graph::addOp, so text that is not canonical (foldable
/// ops, repeated constants) parses into its canonical graph, whose node
/// ids may then differ from the declaration indices.
Graph graphFromText(const std::string& text);

}  // namespace sherlock::ir
