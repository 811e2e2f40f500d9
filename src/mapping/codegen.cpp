#include "mapping/codegen.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>

#include "ir/analysis.h"

namespace sherlock::mapping {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using isa::InstKind;
using isa::Instruction;

namespace {

class CodeGenerator {
 public:
  CodeGenerator(const Graph& g, const isa::TargetSpec& target,
                const PlacementPlan& plan, const Schedule& schedule,
                const CodegenOptions& options)
      : g_(g),
        target_(target),
        plan_(plan),
        schedule_(schedule),
        options_(options),
        layout_(target, options.faults),
        buffers_(static_cast<size_t>(target.numArrays)) {}

  Program run() {
    initState();
    preloadLeaves();
    emitSteps();
    flushOutputs();
    finalize();
    return std::move(prog_);
  }

 private:
  /// One op of a round as planRound decided it: the operand its read
  /// chains (kInvalidNode for none), the column that operand is latched
  /// in or loaded from, the left rotation that carries it to the op's
  /// column (0: the op needs no shift), and the rows the read activates.
  struct RoundOp {
    NodeId op = ir::kInvalidNode;
    ColumnRef at;
    NodeId chained = ir::kInvalidNode;
    int source = -1;
    int rotation = 0;
    isa::RowList rows;
    uint64_t part = 0;  ///< shift-free part or (array, rotation) group
  };
  /// A shift group's plain read of a chained operand from its source.
  struct Load {
    int row;
    int col;
    NodeId value;
    auto operator<=>(const Load&) const = default;
  };
  /// An op of a step, keyed for emitRounds' column and freshness order.
  struct StepOp {
    ColumnRef at;
    long freshness;
    NodeId op;
    auto operator<=>(const StepOp&) const = default;
  };

  // ---------------------------------------------------------------- state
  void initState() {
    // The paper kernels emit 2-6 instructions per DAG node: up to 5.7
    // with eager write-back, which stores every result, and under 3
    // without. Reserving past that up front spares the regrowth copy of
    // the instruction vector, whose old and new blocks would both be
    // live.
    prog_.instructions.reserve((options_.eagerWriteback ? 6 : 4) *
                               g_.numNodes());
    usesLeft_.assign(g_.numNodes(), 0);
    lastLanding_.assign(g_.numNodes(), -1);
    isOutput_.assign(g_.numNodes(), false);
    for (NodeId i = g_.firstId(); i < g_.endId(); ++i)
      for (NodeId o : g_.node(i).operands)
        usesLeft_[static_cast<size_t>(o)]++;
    for (NodeId out : g_.outputs())
      isOutput_[static_cast<size_t>(out)] = true;
    touched_.assign(static_cast<size_t>(target_.cols()) * target_.numArrays,
                    false);
    pinMark_.assign(g_.numNodes(), 0);
  }

  /// A value must not be lost from the row buffer if it still has pending
  /// consumers or is an unmaterialized graph output.
  bool needsFlush(NodeId v) const {
    if (layout_.isPlaced(v)) return false;
    return usesLeft_[static_cast<size_t>(v)] > 0 ||
           isOutput_[static_cast<size_t>(v)];
  }

  /// Column of array `arrayId`'s row buffer currently latching `v`, or -1.
  int findInBuffer(int arrayId, NodeId v) const {
    const RowBuffer& buf = buffers_[static_cast<size_t>(arrayId)];
    return buf.columnOf.empty() ? -1
                                : buf.columnOf[static_cast<size_t>(v)];
  }

  /// Value latched in column `col` of array `arrayId`'s row buffer, or
  /// kInvalidNode.
  NodeId latchedAt(int arrayId, int col) const {
    const RowBuffer& buf = buffers_[static_cast<size_t>(arrayId)];
    return buf.slot.empty() ? ir::kInvalidNode
                            : buf.slot[static_cast<size_t>(col)];
  }

  /// Latches `v` in column `col` of array `arrayId`'s row buffer,
  /// replacing the value that slot held.
  void latch(int arrayId, int col, NodeId v) {
    RowBuffer& buf = buffers_[static_cast<size_t>(arrayId)];
    if (buf.slot.empty()) {
      buf.slot.assign(static_cast<size_t>(target_.cols()), ir::kInvalidNode);
      buf.columnOf.assign(g_.numNodes(), -1);
    }
    NodeId& held = buf.slot[static_cast<size_t>(col)];
    if (held == ir::kInvalidNode)
      buf.latched.push_back(col);
    else
      buf.columnOf[static_cast<size_t>(held)] = -1;
    int& column = buf.columnOf[static_cast<size_t>(v)];
    SHERLOCK_ASSERT(column < 0, "value ", v, " is latched in columns ",
                    column, " and ", col, " of array ", arrayId);
    held = v;
    column = col;
  }

  // ----------------------------------------------------------- emission
  /// Appends `inst`, folding it into the previous instruction when the
  /// adjacent-merge legality conditions hold. `hostValue` is the leaf
  /// whose host data a one-column write carries.
  void emit(Instruction inst, NodeId hostValue = ir::kInvalidNode) {
    if (options_.mergeInstructions && tryMerge(inst, hostValue)) {
      prog_.stats.mergedInstructions++;
      return;
    }
    prog_.instructions.push_back(std::move(inst));
    lastHostValues_ = nullptr;
    if (hostValue != ir::kInvalidNode) {
      lastHostValues_ = &prog_.hostWriteValues[prog_.instructions.size() - 1];
      lastHostValues_->push_back(hostValue);
    }
  }

  /// Attempts to fold `inst` into the last emitted instruction. Only
  /// adjacent pairs on the same array with identical activated rows
  /// (reads) or the same destination row (writes) and disjoint columns are
  /// folded — with no instruction in between, buffer and cell effects of
  /// such pairs commute, so this is always legal.
  bool tryMerge(const Instruction& inst, NodeId hostValue) {
    if (prog_.instructions.empty()) return false;
    Instruction& prev = prog_.instructions.back();
    if (prev.kind != inst.kind || prev.arrayId != inst.arrayId) return false;
    if (inst.kind == InstKind::Shift || inst.kind == InstKind::Xfer)
      return false;
    if (prev.rows != inst.rows) return false;
    bool prevIsCim = !prev.colOps.empty();
    bool instIsCim = !inst.colOps.empty();
    if (prevIsCim != instIsCim) return false;

    bool instIsHost = hostValue != ir::kInvalidNode;
    if ((lastHostValues_ != nullptr) != instIsHost) return false;

    // Columns must be disjoint.
    for (int c : inst.columns)
      if (std::binary_search(prev.columns.begin(), prev.columns.end(), c))
        return false;

    // Without per-column op multiplexers all merged ops must be equal.
    if (instIsCim && !target_.perColumnOps) {
      for (ir::OpKind op : inst.colOps)
        if (op != prev.colOps.front()) return false;
    }

    // A list that outgrows its inline storage inside a round is sized
    // for the rest of the round at once, instead of doubling per fold.
    size_t folded = prev.columns.size() + inst.columns.size();
    if (folded > prev.columns.capacity() && foldRoom_ > 0) {
      size_t room = prev.columns.size() + foldRoom_;
      prev.columns.reserve(room);
      if (instIsCim) {
        prev.colOps.reserve(room);
        prev.chainsBuffer.reserve(room);
      }
    }

    // Fold: insert each column, with its op, chain flag and host value,
    // at its place in the column-sorted parallel lists.
    for (size_t i = 0; i < inst.columns.size(); ++i) {
      auto at = std::lower_bound(prev.columns.begin(), prev.columns.end(),
                                 inst.columns[i]) -
                prev.columns.begin();
      prev.columns.insert(prev.columns.begin() + at, inst.columns[i]);
      if (instIsCim) {
        prev.colOps.insert(prev.colOps.begin() + at, inst.colOps[i]);
        prev.chainsBuffer.insert(prev.chainsBuffer.begin() + at,
                                 inst.chainsBuffer[i]);
      }
      if (instIsHost)
        lastHostValues_->insert(lastHostValues_->begin() + at, hostValue);
    }
    return true;
  }

  // ------------------------------------------------------ buffer upkeep
  /// Frees one cell of a full column by dropping a redundant replica (a
  /// value that also has a cell elsewhere). Returns false if the column
  /// has no replica to drop.
  bool tryDropReplica(ColumnRef where) {
    for (NodeId v : layout_.valuesIn(where)) {
      if (isPinned(v)) continue;
      if (layout_.placementCount(v) >= 2) {
        layout_.releaseCellIn(v, where);
        return true;
      }
    }
    return false;
  }

  /// Writes the buffer bit of (arrayId, col) into a freshly allocated cell
  /// of that column (dropping a replica if the column is full).
  void flushAt(int arrayId, int col) {
    NodeId v = latchedAt(arrayId, col);
    SHERLOCK_ASSERT(v != ir::kInvalidNode, "flush of empty buffer column ",
                    col, " of array ", arrayId);
    ColumnRef where{arrayId, col};
    if (layout_.freeCells(where) == 0 && !tryDropReplica(where))
      throw MappingError(
          strCat("cannot flush value ", v, ": column ", col, " of array ",
                 arrayId, " is full and holds no droppable replica"));
    CellAddress cell = layout_.allocate(v, where);
    emit(isa::makeWrite(arrayId, {col}, cell.row));
    prog_.stats.spillWrites++;
    noteLanding(v);
    touch(arrayId, col);
  }

  /// Guarantees at least `needed` free cells in `where`, evicting
  /// replicas first and, failing that, relocating single-copy victims to
  /// the emptiest other column of the same array.
  void reserveSpace(ColumnRef where, int needed) {
    while (layout_.freeCells(where) < needed) {
      if (tryDropReplica(where)) continue;
      evictVictim(where);
    }
  }

  /// Moves one non-pinned single-copy value out of `where` to make room.
  void evictVictim(ColumnRef where) {
    NodeId victim = ir::kInvalidNode;
    for (NodeId v : layout_.valuesIn(where)) {
      if (isPinned(v)) continue;
      victim = v;
      break;
    }
    if (victim == ir::kInvalidNode)
      throw MappingError(strCat("column ", where.col, " of array ",
                                where.arrayId,
                                " is full of pinned values; the DAG does "
                                "not fit this target"));
    // Pick the emptiest other column of the same array as the new home.
    int bestCol = -1, bestFree = 0;
    for (int c = 0; c < target_.cols(); ++c) {
      if (c == where.col) continue;
      int freeCells = layout_.freeCells({where.arrayId, c});
      if (freeCells > bestFree) {
        bestFree = freeCells;
        bestCol = c;
      }
    }
    if (bestCol < 0)
      throw MappingError(strCat("array ", where.arrayId,
                                " has no free column to evict into"));
    // Relocate: plain read -> shift -> write, then drop the old cell.
    CellAddress src = *layout_.placementIn(victim, where);
    if (latchedAt(where.arrayId, where.col) != victim) flushIfNeeded(where);
    emit(isa::makePlainRead(where.arrayId, {where.col}, src.row));
    prog_.stats.plainReads++;
    latch(where.arrayId, where.col, victim);
    flushLatched(where.arrayId, {&where.col, 1});
    shiftBuffer(where.arrayId, rotation(where.col, bestCol));
    latch(where.arrayId, bestCol, victim);
    CellAddress cell = layout_.allocate(victim, {where.arrayId, bestCol});
    emit(isa::makeWrite(where.arrayId, {bestCol}, cell.row));
    prog_.stats.spillWrites++;
    noteLanding(victim);
    touch(where.arrayId, bestCol);
    layout_.releaseCellIn(victim, where);
  }

  /// Flushes the buffer slot of `where` if losing it would drop a value.
  void flushIfNeeded(ColumnRef where) {
    NodeId v = latchedAt(where.arrayId, where.col);
    if (v != ir::kInvalidNode && needsFlush(v))
      flushAt(where.arrayId, where.col);
  }

  /// Flushes the latched values of `columns` (ascending, so grouped by
  /// array). Per array, two or more go to one row free in all of their
  /// columns, so the writes fold into one and later reads of the values
  /// line up; without a common row, each goes to its own column's lowest
  /// free row.
  void flushAligned(std::span<const ColumnRef> columns) {
    for (size_t begin = 0, end; begin < columns.size(); begin = end) {
      int arrayId = columns[begin].arrayId;
      end = begin + 1;
      while (end < columns.size() && columns[end].arrayId == arrayId) ++end;
      std::span<const ColumnRef> group = columns.subspan(begin, end - begin);
      std::optional<int> row;
      if (group.size() >= 2) row = layout_.commonFreeRow(group);
      for (size_t i = 0; i < group.size(); ++i) {
        if (!row) {
          flushAt(arrayId, group[i].col);
          continue;
        }
        foldRoom_ = group.size() - i;
        NodeId v = latchedAt(arrayId, group[i].col);
        layout_.allocateAt(v, group[i], *row);
        emit(isa::makeWrite(arrayId, {group[i].col}, *row));
        prog_.stats.spillWrites++;
        noteLanding(v);
        touch(arrayId, group[i].col);
      }
      foldRoom_ = 0;
    }
  }

  /// Flushes every value latched in array `arrayId`'s row buffer that
  /// must not be lost, except in the `moving` columns (ascending).
  void flushLatched(int arrayId, std::span<const int> moving) {
    const RowBuffer& buf = buffers_[static_cast<size_t>(arrayId)];
    flushColumns_.clear();
    for (int col : buf.latched)
      if (!std::binary_search(moving.begin(), moving.end(), col) &&
          needsFlush(buf.slot[static_cast<size_t>(col)]))
        flushColumns_.push_back({arrayId, col});
    std::sort(flushColumns_.begin(), flushColumns_.end());
    flushAligned(flushColumns_);
  }

  /// Left rotation of a row buffer that carries column `from` to `to`.
  int rotation(int from, int to) const {
    int n = target_.cols();
    return ((to - from) % n + n) % n;
  }

  /// Rotates array `arrayId`'s row buffer left by `rotation` columns with
  /// one shift, the one rotation of movement, eviction and shift groups.
  /// Every latch is dropped, since the rotation breaks their column
  /// alignment: the caller flushed what it must not lose (flushLatched)
  /// and re-latches the bits it moved.
  void shiftBuffer(int arrayId, int rotation) {
    int right = target_.cols() - rotation;
    if (rotation <= right)
      emit(isa::makeShift(arrayId, isa::ShiftDirection::Left, rotation));
    else
      emit(isa::makeShift(arrayId, isa::ShiftDirection::Right, right));
    prog_.stats.shifts++;
    RowBuffer& buf = buffers_[static_cast<size_t>(arrayId)];
    for (int col : buf.latched) {
      NodeId& held = buf.slot[static_cast<size_t>(col)];
      buf.columnOf[static_cast<size_t>(held)] = -1;
      held = ir::kInvalidNode;
    }
    buf.latched.clear();
  }

  // ----------------------------------------------------------- movement
  /// Makes sure `v` has a cell in column `xc`; returns its row. May emit
  /// plain reads, shifts, XFERs and spill writes.
  int ensureInColumn(NodeId v, ColumnRef xc) {
    if (auto cell = layout_.placementIn(v, xc)) return cell->row;

    // The movement below needs a cell for v plus possible flush targets;
    // make room up front (movement may flush one dirty buffer value here).
    reserveSpace(xc, 2);

    // Stage 1: get the bit into the target array's row buffer.
    int bufCol = findInBuffer(xc.arrayId, v);
    if (bufCol < 0) {
      // Load from a cell; prefer a copy in the target array. A value
      // demanded on another array always has a cell: the eager flow
      // writes every result, the lazy one every result with a remote
      // consumer.
      const auto& cells = layout_.placements(v);
      SHERLOCK_ASSERT(!cells.empty(), "value ", v,
                      " demanded but neither buffered nor placed");
      CellAddress src = cells.front();
      for (const CellAddress& c : cells)
        if (c.arrayId == xc.arrayId) {
          src = c;
          break;
        }
      std::optional<ColumnRef> staging;
      if (src.arrayId != xc.arrayId) {
        // Cross-array cell source: one cell-to-cell transfer, leaving
        // both row buffers undisturbed.
        CellAddress dstCell = layout_.allocate(v, xc);
        if (dstCell.row < layout_.mainRowLimit()) {
          emitXfer(v, src, dstCell);
          if (!options_.reuseMovedCopies && options_.eagerWriteback)
            tempCopies_.push_back({v, xc});
          return dstCell.row;
        }
        // The transfer engine may not program the spare-row repair
        // region (TransferLegality): land the bit in a main-region cell
        // of the nearest other column and finish in-array below, where
        // the write goes through the normal repair machinery.
        layout_.releaseCellIn(v, xc);
        staging = stagingColumn(xc);
        CellAddress staged = layout_.allocate(v, *staging);
        emitXfer(v, src, staged);
        src = staged;
      }
      // The plain read clobbers the source column's buffer slot.
      flushIfNeeded({src.arrayId, src.col});
      emit(isa::makePlainRead(src.arrayId, {src.col}, src.row));
      prog_.stats.plainReads++;
      latch(src.arrayId, src.col, v);
      if (staging) layout_.releaseCellIn(v, *staging);
      bufCol = src.col;
    }

    // Stage 2: align within the array and materialize.
    if (bufCol != xc.col) {
      flushLatched(xc.arrayId, {&bufCol, 1});
      shiftBuffer(xc.arrayId, rotation(bufCol, xc.col));
      latch(xc.arrayId, xc.col, v);
    }
    CellAddress cell = layout_.allocate(v, xc);
    emit(isa::makeWrite(xc.arrayId, {xc.col}, cell.row));
    prog_.stats.spillWrites++;
    noteLanding(v);
    touch(xc.arrayId, xc.col);
    // Scratch-copy tracking only applies to the single-pass (eager) flow;
    // the two-pass flow prepares a whole step before reading.
    if (!options_.reuseMovedCopies && options_.eagerWriteback)
      tempCopies_.push_back({v, xc});
    return cell.row;
  }

  /// Emits the cell-to-cell XFER of `v` from `src` into `dst`, a
  /// main-region cell just allocated for it on another array.
  void emitXfer(NodeId v, CellAddress src, CellAddress dst) {
    emit(isa::makeXfer(src.arrayId, src.col, src.row, dst.arrayId, dst.col,
                       dst.row));
    noteLanding(v);
    touch(dst.arrayId, dst.col);
  }

  /// The column nearest `xc` on its array (fewest shift steps) whose
  /// next allocation lands in the main region.
  ColumnRef stagingColumn(ColumnRef xc) const {
    int n = target_.cols();
    for (int d = 1; d <= n / 2; ++d)
      for (int c : {xc.col + d, xc.col - d}) {
        ColumnRef where{xc.arrayId, (c % n + n) % n};
        if (layout_.hasFreeMainRow(where)) return where;
      }
    throw MappingError(strCat("array ", xc.arrayId,
                              " has no main-region cell to stage a "
                              "transfer into column ",
                              xc.col));
  }

  /// Drops the scratch copies a no-reuse (naive) flow created for the op
  /// that was just emitted. Values that already died were fully released,
  /// and a pair listed twice is released once.
  void dropTempCopies() {
    for (const auto& [value, where] : tempCopies_)
      if (usesLeft_[static_cast<size_t>(value)] > 0 &&
          layout_.placementIn(value, where))
        layout_.releaseCellIn(value, where);
    tempCopies_.clear();
  }

  /// Producer-side transfer push, deferred by one step: results with
  /// remote consumers are queued when produced and transferred at the
  /// start of the NEXT step. The deferral is what makes the movement
  /// free: the producer's flush write has a step of slack before the
  /// transfer senses it, and the transfer's bus leg plus posted landing
  /// write complete while the new step computes — consumer reads (a
  /// step later at the earliest) then find the row ready. This is the
  /// compute/movement overlap the inter-array schedule is built around.
  void pushToRemoteConsumers(NodeId v, ColumnRef xc) {
    for (NodeId u : g_.node(v).users)
      if (plan_.opLocation[static_cast<size_t>(u)].arrayId != xc.arrayId) {
        pendingPushes_.push_back({v, xc});
        return;
      }
  }

  /// Emits the transfers queued by pushToRemoteConsumers during the
  /// previous step. Entries whose value died, was evicted from the
  /// source column, or whose remote column is full (or repaired into
  /// the XFER-illegal spare region) are dropped — the consumer falls
  /// back to an on-demand fetch.
  void drainTransferPushes() {
    for (const auto& [v, xc] : pendingPushes_) {
      if (usesLeft_[static_cast<size_t>(v)] == 0) continue;
      auto src = layout_.placementIn(v, xc);
      if (!src) continue;
      remoteColumns_.clear();
      for (NodeId u : g_.node(v).users) {
        ColumnRef uc = plan_.opLocation[static_cast<size_t>(u)];
        if (uc.arrayId == xc.arrayId) continue;
        if (std::find(remoteColumns_.begin(), remoteColumns_.end(), uc) ==
            remoteColumns_.end())
          remoteColumns_.push_back(uc);
      }
      for (ColumnRef rc : remoteColumns_) {
        if (layout_.placementIn(v, rc)) continue;
        if (layout_.freeCells(rc) == 0) continue;
        CellAddress dst = layout_.allocate(v, rc);
        if (dst.row >= layout_.mainRowLimit()) {
          layout_.releaseCellIn(v, rc);  // spare region is XFER-illegal
          continue;
        }
        emitXfer(v, *src, dst);
      }
    }
    pendingPushes_.clear();
  }

  /// True when `v`'s nearest copy is a cell on a different array — no
  /// buffer or cell copy exists in `xc`'s array, so only ensureInColumn's
  /// XFER can bring it over and it cannot be chained.
  bool crossArrayCellSource(NodeId v, ColumnRef xc) const {
    if (findInBuffer(xc.arrayId, v) >= 0) return false;
    const auto& cells = layout_.placements(v);
    if (cells.empty()) return false;
    for (const CellAddress& c : cells)
      if (c.arrayId == xc.arrayId) return false;
    return true;
  }

  // ------------------------------------------------------------- phases
  void preloadLeaves() {
    for (NodeId i = g_.firstId(); i < g_.endId(); ++i) {
      const Node& n = g_.node(i);
      if (n.isOp()) continue;
      for (ColumnRef where : plan_.leafColumns[static_cast<size_t>(i)]) {
        CellAddress cell = layout_.allocate(i, where);
        emit(isa::makeWrite(where.arrayId, {where.col}, cell.row), i);
        noteLanding(i);
        touch(where.arrayId, where.col);
      }
    }
  }

  /// Emits the schedule's steps in order. An op's producers sit in
  /// earlier steps, and each step lists its ops by (execution column, id).
  void emitSteps() {
    for (size_t s = 0; s < schedule_.steps(); ++s) {
      std::span<const NodeId> step = schedule_.step(s);
      if (options_.eagerWriteback) {
        // Naive flow: straightforward per-node emission (Algorithm 1).
        for (NodeId op : step) {
          pin(op);
          emitOp(op, ir::kInvalidNode,
                 operandRows(op, plan_.opLocation[static_cast<size_t>(op)],
                             ir::kInvalidNode));
        }
      } else {
        // Optimized flow: transfers queued by the previous step go out
        // first (their landing writes ride under this step's compute),
        // then the step's full movements (cell materializations), then
        // the CIM reads. The movement writes gain a step's worth of
        // slack before any read activates their rows, so the
        // posted-write model can hide them.
        drainTransferPushes();
        for (NodeId op : step) prepareOperands(op);
        emitRounds(step);
      }
    }
  }

  /// Optimized flow: emits a step in column-parallel rounds. Round r
  /// holds the r-th op of every execution column that has one, so its
  /// ops sit in distinct columns and their CIM reads can fold into one
  /// instruction wherever they activate the same rows.
  void emitRounds(std::span<const NodeId> step) {
    // Within a column, oldest operands first: an op whose operand cell
    // was written or transferred moments ago (by the drain or the
    // movement pass) goes to a later round, so the posted landing write
    // completes under other rounds' compute instead of stalling the
    // activating read. Ties keep id order.
    stepOrder_.clear();
    for (NodeId op : step)
      stepOrder_.push_back({plan_.opLocation[static_cast<size_t>(op)],
                            operandFreshness(op), op});
    std::sort(stepOrder_.begin(), stepOrder_.end());
    // Column k's ops are stepOrder_[runStarts_[k], runStarts_[k + 1]).
    runStarts_.clear();
    for (size_t i = 0; i < stepOrder_.size(); ++i)
      if (i == 0 || stepOrder_[i].at != stepOrder_[i - 1].at)
        runStarts_.push_back(i);
    runStarts_.push_back(stepOrder_.size());
    size_t busiest = 0;
    for (size_t k = 0; k + 1 < runStarts_.size(); ++k)
      busiest = std::max(busiest, runStarts_[k + 1] - runStarts_[k]);

    for (size_t r = 0; r < busiest; ++r) {
      round_.clear();
      for (size_t k = 0; k + 1 < runStarts_.size(); ++k)
        if (runStarts_[k] + r < runStarts_[k + 1])
          round_.push_back(stepOrder_[runStarts_[k] + r].op);
      pinRound();
      flushForRound();
      planRound();
      // The shift-free part, then one group per (array, rotation).
      size_t begin = 0;
      while (begin < order_.size() && planned(begin).rotation == 0) ++begin;
      emitReads(0, begin);
      for (size_t end; begin < order_.size(); begin = end) {
        end = begin + 1;
        while (end < order_.size() && planned(end).part == planned(begin).part)
          ++end;
        emitShiftGroup(begin, end);
      }
    }
  }

  /// Before a round's reads: flushes every latched value the round would
  /// displace (one its column's op does not consume).
  void flushForRound() {
    flushColumns_.clear();
    for (NodeId op : round_) {
      ColumnRef xc = plan_.opLocation[static_cast<size_t>(op)];
      NodeId v = latchedAt(xc.arrayId, xc.col);
      if (v == ir::kInvalidNode || !needsFlush(v)) continue;
      const std::vector<NodeId>& operands = g_.node(op).operands;
      if (std::find(operands.begin(), operands.end(), v) == operands.end())
        flushColumns_.push_back(xc);
    }
    flushAligned(flushColumns_);  // round order: ascending
  }

  /// Plans the round's ops into roundOps_: decides each op's chained
  /// operand once, finds the column it comes from, and makes every other
  /// operand resident in the op's column. Making an operand resident
  /// moves it only when a full column dropped its prepared cell since;
  /// that movement rotates or overwrites the row buffer, so the round is
  /// then planned again. Only naive placement with lazy write-back has
  /// been seen to need that (Codegen.RoundIsPlannedAgainAfterAMove).
  /// order_ lists the plan shift-free ops first, then by array and
  /// rotation, each part in the order of the rows its reads activate.
  void planRound() {
    for (;;) {
      long moves = prog_.stats.plainReads + prog_.stats.shifts;
      roundOps_.clear();
      for (NodeId op : round_) {
        RoundOp& p = roundOps_.emplace_back();
        p.op = op;
        p.at = plan_.opLocation[static_cast<size_t>(op)];
        p.chained = chainedOperand(op, p.at);
        if (p.chained != ir::kInvalidNode) {
          p.source = chainSource(p.chained, p.at);
          p.rotation = rotation(p.source, p.at.col);
        }
        p.rows = operandRows(op, p.at, p.chained);
        // The part: shift-free first, then by array and rotation.
        p.part = p.rotation == 0
                     ? static_cast<uint64_t>(p.at.arrayId)
                     : (uint64_t{1} << 63) |
                           static_cast<uint64_t>(p.at.arrayId) << 32 |
                           static_cast<uint64_t>(p.rotation);
      }
      if (prog_.stats.plainReads + prog_.stats.shifts == moves) break;
    }
    order_.resize(roundOps_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&](uint32_t i, uint32_t j) {
      const RoundOp& a = roundOps_[i];
      const RoundOp& b = roundOps_[j];
      if (a.part != b.part) return a.part < b.part;
      auto rows = std::lexicographical_compare_three_way(
          a.rows.begin(), a.rows.end(), b.rows.begin(), b.rows.end());
      return rows != 0 ? rows < 0 : a.at.col < b.at.col;
    });
  }

  /// The i-th op of the planned round, in emission order.
  RoundOp& planned(size_t i) { return roundOps_[order_[i]]; }

  /// Emits the CIM reads of planned ops [begin, end), in order.
  void emitReads(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      foldRoom_ = end - i;
      RoundOp& p = planned(i);
      emitOp(p.op, p.chained, std::move(p.rows));
    }
    foldRoom_ = 0;
  }

  /// Emits planned ops [begin, end), ops of one array whose chained
  /// operands all need the same rotation: flush what the shift would
  /// lose, load the operands not yet latched at their sources, shift
  /// once, read. The ops sit in distinct columns, so their sources are
  /// distinct too.
  void emitShiftGroup(size_t begin, size_t end) {
    int arrayId = planned(begin).at.arrayId;
    moving_.clear();
    loads_.clear();
    for (size_t i = begin; i < end; ++i) {
      const RoundOp& p = planned(i);
      if (findInBuffer(arrayId, p.chained) == p.source) {
        moving_.push_back(p.source);
        continue;
      }
      auto cell = layout_.placementIn(p.chained, {arrayId, p.source});
      SHERLOCK_ASSERT(cell, "chained value ", p.chained,
                      " has no cell in column ", p.source, " of array ",
                      arrayId);
      loads_.push_back({cell->row, p.source, p.chained});
    }
    std::sort(moving_.begin(), moving_.end());
    pinPending(begin);
    flushLatched(arrayId, moving_);

    // Loads from one row fold into one plain read.
    std::sort(loads_.begin(), loads_.end());
    for (size_t i = 0; i < loads_.size(); ++i) {
      foldRoom_ = loads_.size() - i;
      const Load& l = loads_[i];
      emit(isa::makePlainRead(arrayId, {l.col}, l.row));
      prog_.stats.plainReads++;
      latch(arrayId, l.col, l.value);
    }
    foldRoom_ = 0;

    shiftBuffer(arrayId, planned(begin).rotation);
    for (size_t i = begin; i < end; ++i)
      latch(arrayId, planned(i).at.col, planned(i).chained);
    emitReads(begin, end);
  }

  /// The column the operand `v` chained into `xc` comes from: the one
  /// latching it, or else one holding a cell of it. A value latched in
  /// another column must have a cell there or still need a flush, or
  /// another group's shift would lose it for good; and the chain rule
  /// only picks values latched or placed on `xc`'s array. The asserts
  /// state both conditions (EXPERIMENTS.md, "Full columns on small
  /// targets", counts the compiles they were checked on).
  int chainSource(NodeId v, ColumnRef xc) const {
    int col = findInBuffer(xc.arrayId, v);
    if (col >= 0) {
      SHERLOCK_ASSERT(col == xc.col || needsFlush(v) ||
                          layout_.placementIn(v, {xc.arrayId, col}),
                      "chained value ", v, " is latched in column ", col,
                      " of array ", xc.arrayId,
                      ", which holds no cell of it, and needs no flush");
      return col;
    }
    const PlacementList& cells = layout_.placements(v);
    auto cell = std::find_if(cells.begin(), cells.end(),
                             [&](const CellAddress& c) {
                               return c.arrayId == xc.arrayId;
                             });
    SHERLOCK_ASSERT(cell != cells.end(), "chained value ", v,
                    " is neither latched nor placed on array ", xc.arrayId);
    return cell->col;
  }

  /// The chain rule: the operand `op`'s CIM read takes from its column's
  /// row buffer instead of a cell, or kInvalidNode. Preferred: a loaded
  /// operand (loadedOperand). Fallback: the bit already latched in the
  /// column, when every other operand has a cell there.
  NodeId chainedOperand(NodeId op, ColumnRef xc) const {
    NodeId loaded = loadedOperand(op, xc);
    if (loaded != ir::kInvalidNode || !chains()) return loaded;
    const std::vector<NodeId>& operands = g_.node(op).operands;
    NodeId b = latchedAt(xc.arrayId, xc.col);
    if (b == ir::kInvalidNode || !safeToConsume(b) ||
        std::find(operands.begin(), operands.end(), b) == operands.end())
      return ir::kInvalidNode;
    for (NodeId o : operands)
      if (o != b && !layout_.placementIn(o, xc)) return ir::kInvalidNode;
    return b;
  }

  /// The chain rule's preferred candidate: an operand of `op` with no
  /// cell in its column `xc`, whose movement then ends in the buffer (a
  /// plain read and a shift), skipping the write and read-after-write
  /// stall of a full materialization; kInvalidNode if none. Chaining
  /// never crosses arrays.
  NodeId loadedOperand(NodeId op, ColumnRef xc) const {
    NodeId loaded = ir::kInvalidNode;
    if (chains())
      for (NodeId o : g_.node(op).operands)
        if (!layout_.placementIn(o, xc) && !crossArrayCellSource(o, xc) &&
            safeToConsume(o))
          loaded = o;
    return loaded;
  }

  bool chains() const {
    return target_.bufferChaining && !options_.eagerWriteback;
  }

  /// A chained bit is consumed from the buffer; that must not lose the
  /// value: a cell copy exists, or this is its last use.
  bool safeToConsume(NodeId v) const {
    bool lastUse = usesLeft_[static_cast<size_t>(v)] == 1 &&
                   !isOutput_[static_cast<size_t>(v)];
    return layout_.isPlaced(v) || lastUse;
  }

  /// Step pass 1 (optimized flow): materializes in its column every
  /// operand of `v` except a loaded one the chain rule leaves for the
  /// buffer. (The rule's fallback only picks an operand that already has
  /// a cell there.)
  void prepareOperands(NodeId v) {
    ColumnRef xc = plan_.opLocation[static_cast<size_t>(v)];
    pin(v);
    NodeId chained = loadedOperand(v, xc);
    for (NodeId o : g_.node(v).operands)
      if (o != chained) ensureInColumn(o, xc);
  }

  /// The rows the CIM read of `op` in `xc` activates, ascending: a cell
  /// in the column for every operand but `chained`, moved there as
  /// needed.
  isa::RowList operandRows(NodeId op, ColumnRef xc, NodeId chained) {
    isa::RowList rows;
    for (NodeId o : g_.node(op).operands)
      if (o != chained) rows.push_back(ensureInColumn(o, xc));
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Emits the CIM read of `v` over `rows` (ascending), taking `chained`
  /// (unless kInvalidNode) from the execution column's row buffer, where
  /// it is latched; then latches the result and consumes the operands.
  void emitOp(NodeId v, NodeId chained, isa::RowList rows) {
    const Node& n = g_.node(v);
    ColumnRef xc = plan_.opLocation[static_cast<size_t>(v)];
    // Operands are distinct (ir::Graph folds repeated operands), so each
    // one activates its own row.
    SHERLOCK_ASSERT(std::adjacent_find(rows.begin(), rows.end()) ==
                        rows.end(),
                    "duplicate operand rows for op ", v);
    SHERLOCK_ASSERT(static_cast<int>(rows.size()) <= target_.mraLimit(),
                    "op ", v, " activates ", rows.size(),
                    " rows, exceeding the MRA limit ", target_.mraLimit());
    SHERLOCK_ASSERT(chained == ir::kInvalidNode ||
                        latchedAt(xc.arrayId, xc.col) == chained,
                    "chained value ", chained, " is not latched in column ",
                    xc.col, " of array ", xc.arrayId);

    // The CIM read overwrites the execution column's buffer slot.
    if (chained == ir::kInvalidNode) flushIfNeeded(xc);

    emit(isa::makeCimRead(xc.arrayId, {xc.col}, std::move(rows), {n.op},
                          {chained != ir::kInvalidNode}));
    if (chained != ir::kInvalidNode) prog_.stats.chainedOperands++;
    latch(xc.arrayId, xc.col, v);
    touch(xc.arrayId, xc.col);

    if (options_.eagerWriteback && needsFlush(v)) {
      flushAt(xc.arrayId, xc.col);
    } else if (needsFlush(v)) {
      // Lazy flow, but the result has consumers on other arrays: flush it
      // to a cell now, since XFER moves cells, not buffer bits. The
      // posted write completes during the rest of the step, and remote
      // consumers then fetch it with a background cell-to-cell XFER.
      for (NodeId u : n.users)
        if (plan_.opLocation[static_cast<size_t>(u)].arrayId !=
            xc.arrayId) {
          flushAt(xc.arrayId, xc.col);
          break;
        }
    }
    if (!options_.eagerWriteback) pushToRemoteConsumers(v, xc);

    // Consume operands; dead values release their cells for reuse.
    for (NodeId o : n.operands) {
      int& left = usesLeft_[static_cast<size_t>(o)];
      SHERLOCK_ASSERT(left > 0, "operand ", o, " over-consumed");
      --left;
      if (left == 0 && !isOutput_[static_cast<size_t>(o)])
        layout_.release(o);
    }
    if (!tempCopies_.empty()) dropTempCopies();
  }

  void flushOutputs() {
    for (NodeId out : g_.outputs()) {
      if (!layout_.isPlaced(out)) {
        bool flushed = false;
        for (int a = 0; a < target_.numArrays && !flushed; ++a) {
          int c = findInBuffer(a, out);
          if (c >= 0) {
            flushAt(a, c);
            flushed = true;
          }
        }
        SHERLOCK_ASSERT(flushed, "output ", out,
                        " neither placed nor buffered at program end");
      }
      prog_.outputCells[out] = *layout_.anyPlacement(out);
    }
  }

  void finalize() {
    prog_.usedColumns = usedColumns_;
    prog_.peakLiveCells = layout_.peakLiveCells();
    prog_.stats.spareRowAllocations = layout_.spareAllocations();
    if (!options_.eagerWriteback)
      prog_.stats.roundFloor = roundFloor(schedule_, plan_);
    prog_.stats.busiestColumn = busiestColumn(g_, plan_);
    prog_.stats.criticalPath = ir::criticalPathLength(g_);
  }

  void touch(int arrayId, int col) {
    size_t idx = static_cast<size_t>(arrayId) * target_.cols() + col;
    if (!touched_[idx]) {
      touched_[idx] = true;
      ++usedColumns_;
    }
  }

  /// Makes `op` and its operands the values exempt from eviction.
  void pin(NodeId op) {
    ++pinEpoch_;
    markPinned(op);
  }

  /// Makes the round's ops and their operands the values exempt from
  /// eviction, so no flush or movement of the round drops a cell one of
  /// its reads activates or loads a chained operand from.
  void pinRound() {
    ++pinEpoch_;
    for (NodeId op : round_) markPinned(op);
  }

  /// Narrows the round's pins to the planned ops from `begin` on: the
  /// ops already emitted read nothing more, so a full column may drop
  /// the replicas they read to make room for a flush.
  void pinPending(size_t begin) {
    ++pinEpoch_;
    for (size_t i = begin; i < order_.size(); ++i) markPinned(planned(i).op);
  }

  void markPinned(NodeId op) {
    pinMark_[static_cast<size_t>(op)] = pinEpoch_;
    for (NodeId o : g_.node(op).operands)
      pinMark_[static_cast<size_t>(o)] = pinEpoch_;
  }

  bool isPinned(NodeId v) const {
    return pinMark_[static_cast<size_t>(v)] == pinEpoch_;
  }

  /// Records that `v`'s most recent cell-landing instruction (posted
  /// write or transfer) is the one just emitted. Consumers use this to
  /// order each step's reads oldest-operand-first, giving fresh rows
  /// the most compute slack before their activating read.
  void noteLanding(NodeId v) {
    lastLanding_[static_cast<size_t>(v)] =
        static_cast<long>(prog_.instructions.size()) - 1;
  }

  /// Emission index of `op`'s most recently landed operand (-1 when all
  /// operands have been resident since before tracking).
  long operandFreshness(NodeId op) const {
    long f = -1;
    for (NodeId o : g_.node(op).operands)
      f = std::max(f, lastLanding_[static_cast<size_t>(o)]);
    return f;
  }

  const Graph& g_;
  const isa::TargetSpec& target_;
  const PlacementPlan& plan_;
  const Schedule& schedule_;
  CodegenOptions options_;

  Layout layout_;
  Program prog_;
  std::vector<int> usesLeft_;
  std::vector<bool> isOutput_;

  /// One array's row buffer, sized on its first latch: the value in each
  /// column, the columns holding one (in latch order), and each value's
  /// column. A value is latched in at most one column of an array.
  struct RowBuffer {
    std::vector<NodeId> slot;   ///< column -> value, kInvalidNode if none
    std::vector<int> latched;   ///< columns whose slot holds a value
    std::vector<int> columnOf;  ///< value -> column, -1 if not latched
  };
  std::vector<RowBuffer> buffers_;  ///< per array
  /// The host-value list of the last emitted instruction, or nullptr when
  /// it carries no host data.
  std::vector<NodeId>* lastHostValues_ = nullptr;
  /// Per column index (arrayId * cols + col): written or computed in.
  std::vector<bool> touched_;
  int usedColumns_ = 0;
  /// Per value: the pin epoch it was last pinned in. The values pinned in
  /// the current epoch (the op or round being emitted and their
  /// operands) are exempt from eviction.
  std::vector<uint32_t> pinMark_;
  uint32_t pinEpoch_ = 1;
  /// Movement scratch copies of the op being emitted (no-reuse flow).
  std::vector<std::pair<NodeId, ColumnRef>> tempCopies_;
  /// Results with remote consumers, queued for the next step's
  /// transfer-push drain (lazy flow only).
  std::vector<std::pair<NodeId, ColumnRef>> pendingPushes_;
  /// Scratch for drainTransferPushes: one value's remote consumer columns.
  std::vector<ColumnRef> remoteColumns_;
  /// Per value: emission index of its latest cell-landing instruction.
  std::vector<long> lastLanding_;
  /// Scratch for emitRounds: the step in column and freshness order,
  /// where each column's ops start in it, the round being emitted, its
  /// plan and emission order, the columns to flush, and a shift group's
  /// moving columns and loads.
  std::vector<StepOp> stepOrder_;
  std::vector<size_t> runStarts_;
  std::vector<NodeId> round_;
  std::vector<RoundOp> roundOps_;
  std::vector<uint32_t> order_;
  std::vector<ColumnRef> flushColumns_;
  std::vector<int> moving_;
  std::vector<Load> loads_;
  /// Inside a round: the instructions still to come that may fold into
  /// the last one (0 outside rounds). tryMerge sizes a list that outgrows
  /// its inline storage for them.
  size_t foldRoom_ = 0;
};

}  // namespace

Program generateCode(const Graph& g, const isa::TargetSpec& target,
                     const PlacementPlan& plan,
                     const CodegenOptions& options) {
  checkArg(plan.opLocation.size() == g.numNodes(),
           "placement plan does not match the graph");
  Schedule schedule = options.eagerWriteback ? bLevelWaves(g, plan)
                                             : chooseSchedule(g, plan);
  return CodeGenerator(g, target, plan, schedule, options).run();
}

Program generateCode(const Graph& g, const isa::TargetSpec& target,
                     const PlacementPlan& plan, const Schedule& schedule,
                     const CodegenOptions& options) {
  checkArg(plan.opLocation.size() == g.numNodes(),
           "placement plan does not match the graph");
  checkSchedule(g, plan, schedule);
  return CodeGenerator(g, target, plan, schedule, options).run();
}

}  // namespace sherlock::mapping
