// Canonical DAG form and content hashing for the compile-service cache.
//
// Two DAGs that differ only in node numbering, input names, or the
// operand order of commutative ops describe the same computation and
// must map to the same cache key. canonicalForm() renumbers the graph
// into an isomorphism-invariant order (Weisfeiler–Leman color
// refinement seeded with exact depth/height invariants, then a
// color-priority topological emission), renames inputs to positional
// names ("i0", "i1", ...) in canonical order, sorts the operand lists
// of commutative ops, and fingerprints the canonical serialization with
// a 128-bit hash.
//
// Guarantees:
//  * Soundness: equal canonical text implies the graphs are isomorphic
//    (the text is a faithful serialization), so a cache hit can never
//    return the program of a semantically different kernel — the only
//    residual risk is a 128-bit fingerprint collision.
//  * Completeness (practical): alpha-renamed, renumbered, and
//    commuted-operand variants of a DAG produce byte-identical
//    canonical text. Pathological automorphic graphs whose 64-bit
//    refinement colors collide may canonicalize differently, which
//    costs a spurious cache miss, never a wrong hit.
//
// Constant folding and structural sharing already hold by construction
// (ir::Graph::addOp); callers that want dead nodes ignored too (the
// compile service does) run transforms::canonicalize() before hashing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.h"

namespace sherlock::ir {

struct CanonicalForm {
  /// The renumbered graph: nodes appear in canonical order, inputs are
  /// renamed "i<k>" by canonical position, commutative operand lists
  /// are sorted by canonical id, and the output list keeps its original
  /// order (output order is part of the kernel's interface).
  Graph graph;

  /// Original input name per canonical input index: inputNames[k] is
  /// the name the caller's graph used for canonical input "i<k>".
  /// Clients bind operands through this map when a cached program was
  /// compiled from a differently-named representative.
  std::vector<std::string> inputNames;

  /// 128-bit fingerprint of the canonical serialization.
  uint64_t hashHi = 0;
  uint64_t hashLo = 0;

  /// Hex rendering "hhhhhhhhhhhhhhhh.llllllllllllllll" used in cache
  /// keys and the serve protocol.
  std::string fingerprint() const;
};

/// Computes the canonical form. Cost is O(rounds * edges * log) with a
/// small bounded round count — microseconds on kernel-sized DAGs, far
/// below a compile.
CanonicalForm canonicalForm(const Graph& g);

}  // namespace sherlock::ir
