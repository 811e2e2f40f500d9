#include "mapping/naive_mapper.h"

#include "ir/analysis.h"
#include "mapping/layout.h"

namespace sherlock::mapping {

PlacementPlan mapNaive(const ir::Graph& g, const isa::TargetSpec& target,
                       const FaultPolicy& faults) {
  PlacementPlan plan;
  plan.opLocation.resize(g.numNodes());
  plan.leafColumns.resize(g.numNodes());

  const int m = target.rows();
  const int totalColumns = target.cols() * target.numArrays;

  int cursor = 0;  // global column index = arrayId * cols + col
  int index = 0;   // cells reserved in the current column

  auto columnOf = [&](int globalCol) {
    return ColumnRef{globalCol / target.cols(), globalCol % target.cols()};
  };
  // Per-column packing budget: with faults, only usable cells below the
  // spare-row boundary count (the spare region is the repair reserve).
  // Counted per array, when the cursor first enters it.
  int budgetArray = -1;
  std::vector<int> arrayBudget;
  auto capacityOf = [&](int globalCol) {
    ColumnRef c = columnOf(globalCol);
    if (c.arrayId != budgetArray) {
      budgetArray = c.arrayId;
      arrayBudget = usablePlanningCells(target, faults, c.arrayId);
    }
    return arrayBudget[static_cast<size_t>(c.col)];
  };
  int capacity = capacityOf(0);
  auto reserveCell = [&] {
    while (index >= capacity) {  // skips fully-faulty columns too
      ++cursor;
      index = 0;
      if (cursor >= totalColumns)
        throw MappingError(
            strCat("naive mapping needs more than ", totalColumns,
                   " columns (", target.numArrays, " arrays of ",
                   target.cols(), "x", m, ")",
                   faults.active() ? strCat("; fault policy reserves ",
                                            faults.spareRows,
                                            " spare rows per column")
                                   : ""));
      capacity = capacityOf(cursor);
    }
    ++index;
    return columnOf(cursor);
  };

  std::vector<bool> mapped(g.numNodes(), false);
  for (ir::NodeId node : ir::bLevelSortedOps(g)) {
    // Map the operands that are not in the array yet (leaf operands seen
    // for the first time; op operands were mapped when their producer was
    // processed — producers always have higher b-level).
    for (ir::NodeId o : g.node(node).operands) {
      if (mapped[static_cast<size_t>(o)] || g.node(o).isOp()) continue;
      plan.leafColumns[static_cast<size_t>(o)].push_back(reserveCell());
      mapped[static_cast<size_t>(o)] = true;
    }
    // Reserve the result slot; the op executes in that column.
    plan.opLocation[static_cast<size_t>(node)] = reserveCell();
    mapped[static_cast<size_t>(node)] = true;
  }

  // Leaves that are graph outputs but never consumed still need a home.
  for (ir::NodeId out : g.outputs()) {
    if (g.node(out).isOp() || mapped[static_cast<size_t>(out)]) continue;
    plan.leafColumns[static_cast<size_t>(out)].push_back(reserveCell());
    mapped[static_cast<size_t>(out)] = true;
  }

  plan.usedColumns = cursor + (index > 0 ? 1 : 0);
  plan.clusterCount = 0;
  return plan;
}

}  // namespace sherlock::mapping
