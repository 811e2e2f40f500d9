// Sherlock's optimizing mapper (paper Algorithm 2): clusters the DAG's op
// nodes (clustering.h), assigns each cluster to one CIM column, and derives
// the placement plan the code generator consumes. Leaf operands are
// pre-loaded into every cluster column that consumes them (duplication at
// load time is one write; fetching across columns at run time would cost a
// read + shift + write round trip).
#pragma once

#include "ir/graph.h"
#include "isa/target.h"
#include "mapping/clustering.h"
#include "mapping/layout.h"
#include "mapping/placement.h"

namespace sherlock::mapping {

struct OptMapperOptions {
  /// Post-merge local refinement sweeps (see clustering.h); also the
  /// most Kernighan-Lin sweeps a spill across arrays makes.
  int refinePasses = 2;
  /// Columns of each array the mapper may occupy (0 = every column).
  /// Shrinking the cap forces kernels across arrays — the fuzz harness
  /// uses it to exercise inter-array codegen on small DAGs.
  int maxColumnsPerArray = 0;
};

struct OptMapping {
  PlacementPlan plan;
  ClusteringResult clustering;
};

/// Produces the Algorithm 2 placement plan. With a fault policy, clusters
/// are budgeted against the worst usable column and assigned only to
/// columns that can actually hold one (dead columns are skipped). All
/// clusters go on the first array with a usable column for each; a
/// kernel no array holds spills across arrays, keeping few operand
/// edges on the bus (greedy placement plus Kernighan-Lin sweeps). Throws
/// MappingError when the clusters cannot fit the target's columns.
OptMapping mapOptimized(const ir::Graph& g, const isa::TargetSpec& target,
                        const OptMapperOptions& options = {},
                        const FaultPolicy& faults = {});

}  // namespace sherlock::mapping
