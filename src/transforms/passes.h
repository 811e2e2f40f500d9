// Cleanup and optimization passes over the DAG IR. Constant folding and
// common-subexpression elimination are not passes: ir::Graph applies them
// as nodes are added (see ir/graph.h), so every graph — and every pass
// result — is already folded and shared. All passes are functional (the
// input graph is untouched) and preserve the bulk-bitwise semantics of
// the marked outputs.
#pragma once

#include "ir/graph.h"

namespace sherlock::transforms {

/// Removes every node that no marked output transitively depends on.
/// Inputs are always kept (they define the external interface). Since
/// graphs are folded and shared by construction, dropping dead nodes is
/// all that is left of canonicalization.
ir::Graph canonicalize(const ir::Graph& g);

/// Inverter folding: absorbs NOT nodes into the native inverted scouting
/// ops and applies De Morgan rewrites, shrinking the instruction count on
/// NOT-heavy front-end output. Rules (all exact):
///   NOT(x) where x is a single-use logic op  ->  the inverted-kind op
///   AND/OR/NAND/NOR whose operands are all NOTs  ->  De Morgan dual
///   XOR/XNOR strip NOT operands pairwise (parity absorbed in the kind)
/// Expects a graph without dead nodes (single use is counted on the
/// input) and returns one.
ir::Graph foldInverters(const ir::Graph& g);

}  // namespace sherlock::transforms
