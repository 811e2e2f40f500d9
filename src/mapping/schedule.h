// Schedules: the order in which codegen emits a DAG's ops, as data. A
// schedule is a sequence of steps; each step is a set of mutually
// independent ops, and every op's producers sit in earlier steps. Codegen
// splits each step into column-parallel rounds (codegen.h), so how the
// ops are cut into steps decides how many rounds each execution column
// runs, and how far a step's CIM reads can fold into one instruction.
//
// Two producers cut the ops into waves, one step per level: b-level
// waves run the highest b-level first (deepest remaining work first,
// Kwok & Ahmad priorities), t-level waves run in ASAP depth order. The
// optimized flow takes the one with the lower round floor, and b-level
// waves on a tie (chooseSchedule); the naive flow runs b-level waves.
#pragma once

#include <span>
#include <vector>

#include "ir/graph.h"
#include "mapping/placement.h"

namespace sherlock::mapping {

/// A sequence of steps over a DAG's op nodes: every op sits in exactly
/// one step, after the steps of its producers, and each step lists its
/// ops by (execution column, id).
struct Schedule {
  /// The ops, step after step.
  std::vector<ir::NodeId> ops;
  /// Step s holds ops[stepStart[s], stepStart[s + 1]).
  std::vector<size_t> stepStart{0};

  size_t steps() const { return stepStart.size() - 1; }
  bool operator==(const Schedule&) const = default;
  std::span<const ir::NodeId> step(size_t s) const {
    return std::span(ops).subspan(stepStart[s],
                                  stepStart[s + 1] - stepStart[s]);
  }
};

/// One step per b-level, highest first.
Schedule bLevelWaves(const ir::Graph& g, const PlacementPlan& plan);

/// One step per t-level (ASAP depth), lowest first.
Schedule tLevelWaves(const ir::Graph& g, const PlacementPlan& plan);

/// The sum over the steps of the busiest execution column's op count.
/// One instruction holds at most one op per column, so no emission of
/// the schedule needs fewer CIM reads. O(ops), allocation-free.
long roundFloor(const Schedule& schedule, const PlacementPlan& plan);

/// The wave schedule with the lower round floor; b-level waves on a tie.
Schedule chooseSchedule(const ir::Graph& g, const PlacementPlan& plan);

/// The most ops `plan` places in one execution column. Every schedule's
/// round floor is at least this, and at least the critical path
/// (ir::criticalPathLength).
long busiestColumn(const ir::Graph& g, const PlacementPlan& plan);

/// Throws Error unless `schedule` is one of `g`'s ops under `plan`: each
/// op once, after its producers, each step in (execution column, id)
/// order.
void checkSchedule(const ir::Graph& g, const PlacementPlan& plan,
                   const Schedule& schedule);

}  // namespace sherlock::mapping
