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
                const PlacementPlan& plan, const CodegenOptions& options)
      : g_(g),
        target_(target),
        plan_(plan),
        options_(options),
        layout_(target, options.faults),
        buffers_(static_cast<size_t>(target.numArrays)) {}

  Program run() {
    initState();
    preloadLeaves();
    emitWaves();
    flushOutputs();
    finalize();
    return std::move(prog_);
  }

 private:
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
    shiftBuffer(where.arrayId, where.col, bestCol, victim);
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

  /// Rotates array `arrayId`'s row buffer so the bit at `from` lands on
  /// `to`. All other latched values are flushed first, in ascending
  /// column order (the rotation invalidates their column alignment), and
  /// dropped from tracking.
  void shiftBuffer(int arrayId, int from, int to, NodeId moved) {
    RowBuffer& buf = buffers_[static_cast<size_t>(arrayId)];
    std::sort(buf.latched.begin(), buf.latched.end());
    for (int col : buf.latched) {
      NodeId val = buf.slot[static_cast<size_t>(col)];
      if (val != moved && needsFlush(val)) flushAt(arrayId, col);
    }

    int n = target_.cols();
    int left = ((to - from) % n + n) % n;
    int right = n - left;
    if (left <= right)
      emit(isa::makeShift(arrayId, isa::ShiftDirection::Left, left));
    else
      emit(isa::makeShift(arrayId, isa::ShiftDirection::Right, right));
    prog_.stats.shifts++;
    for (int col : buf.latched) {
      NodeId& held = buf.slot[static_cast<size_t>(col)];
      buf.columnOf[static_cast<size_t>(held)] = -1;
      held = ir::kInvalidNode;
    }
    buf.latched.clear();
    latch(arrayId, to, moved);
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
    if (bufCol != xc.col) shiftBuffer(xc.arrayId, bufCol, xc.col, v);
    CellAddress cell = layout_.allocate(v, xc);
    emit(isa::makeWrite(xc.arrayId, {xc.col}, cell.row));
    prog_.stats.spillWrites++;
    noteLanding(v);
    touch(xc.arrayId, xc.col);
    // Scratch-copy tracking only applies to the single-pass (eager) flow;
    // the two-pass flow prepares a whole wave before reading.
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

  /// Producer-side transfer push, deferred by one wave: results with
  /// remote consumers are queued when produced and transferred at the
  /// start of the NEXT wave. The deferral is what makes the movement
  /// free: the producer's flush write has a wave of slack before the
  /// transfer senses it, and the transfer's bus leg plus posted landing
  /// write complete while the new wave computes — consumer reads (a
  /// wave later at the earliest) then find the row ready. This is the
  /// compute/movement overlap the inter-array schedule is built around.
  void pushToRemoteConsumers(NodeId v, ColumnRef xc) {
    for (NodeId u : g_.node(v).users)
      if (plan_.opLocation[static_cast<size_t>(u)].arrayId != xc.arrayId) {
        pendingPushes_.push_back({v, xc});
        return;
      }
  }

  /// Emits the transfers queued by pushToRemoteConsumers during the
  /// previous wave. Entries whose value died, was evicted from the
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

  /// Brings `v` into the row buffer of `xc` WITHOUT materializing a cell —
  /// used to chain an operand directly into the consuming CIM read,
  /// avoiding the write + read-after-write stall of a full movement.
  /// The caller guarantees the value is not lost (a cell copy exists
  /// elsewhere, or this is its last use) and is already on `xc`'s array
  /// (latched in its buffer or held in one of its cells).
  void bringToBuffer(NodeId v, ColumnRef xc) {
    int bufCol = findInBuffer(xc.arrayId, v);
    if (bufCol < 0) {
      const auto& cells = layout_.placements(v);
      auto local = std::find_if(
          cells.begin(), cells.end(),
          [&](const CellAddress& c) { return c.arrayId == xc.arrayId; });
      SHERLOCK_ASSERT(local != cells.end(), "chained value ", v,
                      " has no copy on array ", xc.arrayId);
      CellAddress src = *local;  // the flush below may reallocate `cells`
      flushIfNeeded({src.arrayId, src.col});
      emit(isa::makePlainRead(src.arrayId, {src.col}, src.row));
      prog_.stats.plainReads++;
      latch(src.arrayId, src.col, v);
      bufCol = src.col;
    }
    if (bufCol != xc.col) shiftBuffer(xc.arrayId, bufCol, xc.col, v);
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

  void emitWaves() {
    // Both priority schemes group ops into dependence-free waves: b-level
    // waves run from the highest priority down (deepest remaining work
    // first), t-level (ASAP) waves in increasing depth. Either way an
    // op's producers always sit in earlier-emitted waves.
    bool useTLevel =
        options_.waveOrder == CodegenOptions::WaveOrder::TLevel;
    auto levels = useTLevel ? ir::tLevels(g_) : ir::bLevels(g_);
    int maxLevel = 0;
    for (NodeId op : g_.opNodes())
      maxLevel = std::max(maxLevel, levels[static_cast<size_t>(op)]);

    std::vector<std::vector<NodeId>> waves(
        static_cast<size_t>(maxLevel) + 1);
    for (NodeId op : g_.opNodes())
      waves[static_cast<size_t>(levels[static_cast<size_t>(op)])].push_back(
          op);

    for (int step = 0; step < maxLevel; ++step) {
      int level = useTLevel ? step + 1 : maxLevel - step;
      auto& wave = waves[static_cast<size_t>(level)];
      std::sort(wave.begin(), wave.end(), [&](NodeId a, NodeId b) {
        const ColumnRef& ca = plan_.opLocation[static_cast<size_t>(a)];
        const ColumnRef& cb = plan_.opLocation[static_cast<size_t>(b)];
        if (ca != cb) return ca < cb;
        return a < b;
      });
      if (options_.eagerWriteback) {
        // Naive flow: straightforward per-node emission (Algorithm 1).
        for (NodeId op : wave) emitOp(op);
      } else {
        // Optimized flow: transfers queued by the previous wave go out
        // first (their landing writes ride under this wave's compute),
        // then the wave's full movements (cell materializations), then
        // the CIM reads. The movement writes gain a wave's worth of
        // slack before any read activates their rows, so the
        // posted-write model can hide them.
        drainTransferPushes();
        for (NodeId op : wave) prepareOperands(op);
        emitRounds(wave);
      }
    }
  }

  /// Optimized flow: emits a wave in column-parallel rounds. Round r
  /// holds the r-th op of every execution column that has one, columns
  /// ascending; its CIM reads can therefore fold into one instruction
  /// wherever they activate the same rows.
  void emitRounds(std::vector<NodeId>& wave) {
    auto columnOf = [&](NodeId op) {
      return plan_.opLocation[static_cast<size_t>(op)];
    };
    // Within a column, oldest operands first: an op whose operand cell
    // was written or transferred moments ago (by the drain or the
    // movement pass) goes last, so the posted landing write completes
    // under the other ops' compute instead of stalling the activating
    // read. Ties keep id order.
    std::sort(wave.begin(), wave.end(), [&](NodeId a, NodeId b) {
      if (columnOf(a) != columnOf(b)) return columnOf(a) < columnOf(b);
      long fa = operandFreshness(a), fb = operandFreshness(b);
      return fa != fb ? fa < fb : a < b;
    });
    // Column k's ops are wave[runStarts_[k], runStarts_[k + 1]).
    runStarts_.clear();
    for (size_t i = 0; i < wave.size(); ++i)
      if (i == 0 || columnOf(wave[i]) != columnOf(wave[i - 1]))
        runStarts_.push_back(i);
    runStarts_.push_back(wave.size());
    size_t busiest = 0;
    for (size_t k = 0; k + 1 < runStarts_.size(); ++k)
      busiest = std::max(busiest, runStarts_[k + 1] - runStarts_[k]);
    prog_.stats.roundFloor += static_cast<long>(busiest);

    for (size_t r = 0; r < busiest; ++r) {
      round_.clear();
      for (size_t k = 0; k + 1 < runStarts_.size(); ++k)
        if (runStarts_[k] + r < runStarts_[k + 1])
          round_.push_back(wave[runStarts_[k] + r]);
      flushForRound();
      for (size_t i = 0; i < round_.size(); ++i) {
        foldRoom_ = round_.size() - i;
        emitOp(round_[i]);
      }
      foldRoom_ = 0;
    }
  }

  /// Before a round's reads: flushes every latched value the round would
  /// displace (one its column's op does not consume). Per array, two or
  /// more such values go to one row free in all of their columns, so the
  /// writes fold into one and later reads of the values line up; without
  /// a common row, each is flushed to its own column's lowest free row.
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
    // flushColumns_ is in round order: ascending, so grouped by array.
    for (size_t begin = 0, end; begin < flushColumns_.size(); begin = end) {
      int arrayId = flushColumns_[begin].arrayId;
      end = begin + 1;
      while (end < flushColumns_.size() &&
             flushColumns_[end].arrayId == arrayId)
        ++end;
      std::span<const ColumnRef> group(flushColumns_.data() + begin,
                                       end - begin);
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

  /// Wave pass 1 (optimized flow): materializes every operand that will be
  /// consumed from a cell, leaving at most one non-resident operand per op
  /// for row-buffer chaining in pass 2.
  void prepareOperands(NodeId v) {
    const Node& n = g_.node(v);
    ColumnRef xc = plan_.opLocation[static_cast<size_t>(v)];
    pin(v);

    // Skip one chainable non-resident operand (pass 2 brings it into the
    // buffer right before the read); materialize the rest.
    NodeId skipped = ir::kInvalidNode;
    if (target_.bufferChaining) {
      for (NodeId o : n.operands) {
        if (layout_.placementIn(o, xc)) continue;
        if (crossArrayCellSource(o, xc)) continue;
        bool lastUse = usesLeft_[static_cast<size_t>(o)] == 1 &&
                       !isOutput_[static_cast<size_t>(o)];
        if (layout_.isPlaced(o) || lastUse) skipped = o;
      }
    }
    for (NodeId o : n.operands)
      if (o != skipped) ensureInColumn(o, xc);
  }

  void emitOp(NodeId v) {
    const Node& n = g_.node(v);
    ColumnRef xc = plan_.opLocation[static_cast<size_t>(v)];

    // Pin the op's values against eviction while it is being emitted.
    pin(v);

    // Operands are distinct (ir::Graph folds repeated operands), so each
    // one activates its own row.
    const std::vector<NodeId>& operands = n.operands;

    // Chaining decision: one operand may be consumed from the execution
    // column's row buffer instead of a cell. Preferred candidate: an
    // operand that is NOT resident in this column anyway — its movement
    // then ends in the buffer (read + shift + chain), skipping the write
    // and the read-after-write stall of a full materialization. Fallback:
    // the bit already latched in the buffer. Either way, consuming the
    // bit must not lose the value (a cell copy exists, or last use).
    NodeId chainVal = ir::kInvalidNode;
    bool chainLoaded = false;
    if (target_.bufferChaining && !options_.eagerWriteback) {
      auto safeToConsume = [&](NodeId b) {
        bool lastUse = usesLeft_[static_cast<size_t>(b)] == 1 &&
                       !isOutput_[static_cast<size_t>(b)];
        return layout_.isPlaced(b) || lastUse;
      };
      // Loaded-operand candidate. Operands with no copy on this array
      // arrive by ensureInColumn's XFER; chaining never crosses arrays.
      for (NodeId o : operands) {
        if (layout_.placementIn(o, xc)) continue;
        if (crossArrayCellSource(o, xc)) continue;
        if (safeToConsume(o)) {
          chainVal = o;
          chainLoaded = true;
        }
      }
      if (chainVal == ir::kInvalidNode) {
        // Buffer-resident candidate; only valid if no other operand needs
        // movement (movement shifts would rotate the bit away).
        NodeId b = latchedAt(xc.arrayId, xc.col);
        if (b != ir::kInvalidNode) {
          bool othersResident = true;
          for (NodeId o : operands)
            if (o != b && !layout_.placementIn(o, xc))
              othersResident = false;
          if (safeToConsume(b) && othersResident &&
              std::find(operands.begin(), operands.end(), b) !=
                  operands.end())
            chainVal = b;
        }
      }
    }

    // Materialize the cell operands (movement happens here), then bring a
    // loaded chain operand into the buffer last (its shift would disturb
    // nothing any more).
    isa::RowList rows;
    for (NodeId o : operands) {
      if (o == chainVal) continue;
      rows.push_back(ensureInColumn(o, xc));
    }
    if (chainLoaded) bringToBuffer(chainVal, xc);
    std::sort(rows.begin(), rows.end());
    SHERLOCK_ASSERT(std::adjacent_find(rows.begin(), rows.end()) ==
                        rows.end(),
                    "duplicate operand rows for op ", v);
    SHERLOCK_ASSERT(static_cast<int>(rows.size()) <= target_.mraLimit(),
                    "op ", v, " activates ", rows.size(),
                    " rows, exceeding the MRA limit ", target_.mraLimit());

    // The CIM read overwrites the execution column's buffer slot.
    if (chainVal == ir::kInvalidNode) flushIfNeeded(xc);

    emit(isa::makeCimRead(xc.arrayId, {xc.col}, std::move(rows), {n.op},
                          {chainVal != ir::kInvalidNode}));
    if (chainVal != ir::kInvalidNode) prog_.stats.chainedOperands++;
    latch(xc.arrayId, xc.col, v);
    touch(xc.arrayId, xc.col);

    if (options_.eagerWriteback && needsFlush(v)) {
      flushAt(xc.arrayId, xc.col);
    } else if (needsFlush(v)) {
      // Lazy flow, but the result has consumers on other arrays: flush it
      // to a cell now, since XFER moves cells, not buffer bits. The
      // posted write completes during the rest of the wave, and remote
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
    const std::vector<NodeId>& operands = g_.node(op).operands;
    pinned_.assign(operands.begin(), operands.end());
    pinned_.push_back(op);
  }

  bool isPinned(NodeId v) const {
    return std::find(pinned_.begin(), pinned_.end(), v) != pinned_.end();
  }

  /// Records that `v`'s most recent cell-landing instruction (posted
  /// write or transfer) is the one just emitted. Consumers use this to
  /// order each wave's reads oldest-operand-first, giving fresh rows
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
  /// The op being emitted and its operands; exempt from eviction.
  std::vector<NodeId> pinned_;
  /// Movement scratch copies of the op being emitted (no-reuse flow).
  std::vector<std::pair<NodeId, ColumnRef>> tempCopies_;
  /// Results with remote consumers, queued for the next wave's
  /// transfer-push drain (lazy flow only).
  std::vector<std::pair<NodeId, ColumnRef>> pendingPushes_;
  /// Scratch for drainTransferPushes: one value's remote consumer columns.
  std::vector<ColumnRef> remoteColumns_;
  /// Per value: emission index of its latest cell-landing instruction.
  std::vector<long> lastLanding_;
  /// Scratch for emitRounds: where each column's ops start in the wave,
  /// the round being emitted, and the round columns to flush.
  std::vector<size_t> runStarts_;
  std::vector<NodeId> round_;
  std::vector<ColumnRef> flushColumns_;
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
  return CodeGenerator(g, target, plan, options).run();
}

}  // namespace sherlock::mapping
