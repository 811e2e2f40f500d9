#include "mapping/schedule.h"

#include <algorithm>
#include <numeric>

#include "ir/analysis.h"

namespace sherlock::mapping {

using ir::Graph;
using ir::NodeId;

namespace {

/// Arrays and columns per array that the plan's ops reach, so that
/// columnKey numbers every execution column densely.
std::pair<int, int> extent(const Graph& g, const PlacementPlan& plan) {
  int arrays = 0, cols = 0;
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    if (!g.node(i).isOp()) continue;
    const ColumnRef& at = plan.opLocation[static_cast<size_t>(i)];
    arrays = std::max(arrays, at.arrayId + 1);
    cols = std::max(cols, at.col + 1);
  }
  return {arrays, cols};
}

size_t columnKey(const ColumnRef& at, int cols) {
  return static_cast<size_t>(at.arrayId) * static_cast<size_t>(cols) +
         static_cast<size_t>(at.col);
}

/// The op nodes in (execution column, id) order: a counting sort of the
/// ops, taken in id order, by column.
std::vector<NodeId> opsByColumn(const Graph& g, const PlacementPlan& plan) {
  auto [arrays, cols] = extent(g, plan);
  std::vector<size_t> next(static_cast<size_t>(arrays) * cols + 1, 0);
  for (NodeId i = g.firstId(); i < g.endId(); ++i)
    if (g.node(i).isOp())
      ++next[columnKey(plan.opLocation[static_cast<size_t>(i)], cols) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<NodeId> ops(next.back());
  for (NodeId i = g.firstId(); i < g.endId(); ++i)
    if (g.node(i).isOp())
      ops[next[columnKey(plan.opLocation[static_cast<size_t>(i)], cols)]++] =
          i;
  return ops;
}

/// One step per level of `levels` (op levels run 1..max), highest first
/// or lowest first: a counting sort of `byColumn` by level, so each step
/// keeps its (execution column, id) order.
Schedule waves(const std::vector<NodeId>& byColumn,
               const std::vector<int>& levels, bool highestFirst) {
  int maxLevel = 0;
  for (NodeId op : byColumn)
    maxLevel = std::max(maxLevel, levels[static_cast<size_t>(op)]);
  auto stepOf = [&](NodeId op) {
    int level = levels[static_cast<size_t>(op)];
    return static_cast<size_t>(highestFirst ? maxLevel - level : level - 1);
  };

  Schedule s;
  s.stepStart.assign(static_cast<size_t>(maxLevel) + 1, 0);
  for (NodeId op : byColumn) ++s.stepStart[stepOf(op) + 1];
  std::partial_sum(s.stepStart.begin(), s.stepStart.end(),
                   s.stepStart.begin());
  std::vector<size_t> next(s.stepStart.begin(), s.stepStart.end() - 1);
  s.ops.resize(byColumn.size());
  for (NodeId op : byColumn) s.ops[next[stepOf(op)]++] = op;
  return s;
}

}  // namespace

Schedule bLevelWaves(const Graph& g, const PlacementPlan& plan) {
  return waves(opsByColumn(g, plan), ir::bLevels(g), true);
}

Schedule tLevelWaves(const Graph& g, const PlacementPlan& plan) {
  return waves(opsByColumn(g, plan), ir::tLevels(g), false);
}

long roundFloor(const Schedule& schedule, const PlacementPlan& plan) {
  long floor = 0;
  for (size_t s = 0; s < schedule.steps(); ++s) {
    // A step lists each column's ops back to back: its busiest column is
    // its longest run.
    long busiest = 0, run = 0;
    const ColumnRef* last = nullptr;
    for (NodeId op : schedule.step(s)) {
      const ColumnRef& at = plan.opLocation[static_cast<size_t>(op)];
      run = last && *last == at ? run + 1 : 1;
      busiest = std::max(busiest, run);
      last = &at;
    }
    floor += busiest;
  }
  return floor;
}

Schedule chooseSchedule(const Graph& g, const PlacementPlan& plan) {
  std::vector<NodeId> byColumn = opsByColumn(g, plan);
  Schedule b = waves(byColumn, ir::bLevels(g), true);
  Schedule t = waves(byColumn, ir::tLevels(g), false);
  return roundFloor(t, plan) < roundFloor(b, plan) ? std::move(t)
                                                    : std::move(b);
}

long busiestColumn(const Graph& g, const PlacementPlan& plan) {
  auto [arrays, cols] = extent(g, plan);
  std::vector<long> count(static_cast<size_t>(arrays) * cols, 0);
  long busiest = 0;
  for (NodeId i = g.firstId(); i < g.endId(); ++i)
    if (g.node(i).isOp())
      busiest = std::max(
          busiest,
          ++count[columnKey(plan.opLocation[static_cast<size_t>(i)], cols)]);
  return busiest;
}

void checkSchedule(const Graph& g, const PlacementPlan& plan,
                   const Schedule& schedule) {
  checkArg(!schedule.stepStart.empty() && schedule.stepStart.front() == 0 &&
               schedule.stepStart.back() == schedule.ops.size() &&
               std::is_sorted(schedule.stepStart.begin(),
                              schedule.stepStart.end()),
           "schedule steps do not cover its op list");
  checkArg(schedule.ops.size() == g.opCount(), "schedule lists ",
           schedule.ops.size(), " ops; the graph has ", g.opCount());
  // Step of each scheduled node, steps() for one not (yet) scheduled.
  std::vector<size_t> stepOf(g.numNodes(), schedule.steps());
  for (size_t s = 0; s < schedule.steps(); ++s) {
    std::span<const NodeId> step = schedule.step(s);
    for (size_t i = 0; i < step.size(); ++i) {
      NodeId op = step[i];
      checkArg(op >= g.firstId() && op < g.endId() && g.node(op).isOp(),
               "schedule step ", s, " lists ", op, ", which is not an op");
      checkArg(stepOf[static_cast<size_t>(op)] == schedule.steps(), "op ",
               op, " is scheduled twice");
      stepOf[static_cast<size_t>(op)] = s;
      if (i > 0) {
        NodeId before = step[i - 1];
        const ColumnRef& prev = plan.opLocation[static_cast<size_t>(before)];
        const ColumnRef& at = plan.opLocation[static_cast<size_t>(op)];
        checkArg(prev < at || (prev == at && before < op), "schedule step ",
                 s, " is not in (execution column, id) order at op ", op);
      }
      for (NodeId o : g.node(op).operands)
        checkArg(!g.node(o).isOp() || stepOf[static_cast<size_t>(o)] < s,
                 "op ", op, " is scheduled in step ", s,
                 ", not after its producer ", o);
    }
  }
}

}  // namespace sherlock::mapping
