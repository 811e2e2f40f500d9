#include "mapping/codegen.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

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
        buffer_(static_cast<size_t>(target.numArrays)) {}

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
    // The paper kernels emit 2-6 instructions per DAG node; reserving
    // up front spares most regrowth copies of the instruction vector.
    prog_.instructions.reserve(4 * g_.numNodes());
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
    for (const auto& [col, val] : buffer_[static_cast<size_t>(arrayId)])
      if (val == v) return col;
    return -1;
  }

  // ----------------------------------------------------------- emission
  /// Appends `inst`, folding it into the previous instruction when the
  /// adjacent-merge legality conditions hold.
  void emit(Instruction inst, std::vector<NodeId> hostValues = {}) {
    isa::validateInstruction(inst, target_.numArrays, target_.rows(),
                             target_.cols());
    if (options_.mergeInstructions && tryMerge(inst, hostValues)) {
      prog_.stats.mergedInstructions++;
      return;
    }
    prog_.instructions.push_back(std::move(inst));
    if (!hostValues.empty())
      prog_.hostWriteValues[prog_.instructions.size() - 1] =
          std::move(hostValues);
  }

  /// Attempts to fold `inst` into the last emitted instruction. Only
  /// adjacent pairs on the same array with identical activated rows
  /// (reads) or the same destination row (writes) and disjoint columns are
  /// folded — with no instruction in between, buffer and cell effects of
  /// such pairs commute, so this is always legal.
  bool tryMerge(const Instruction& inst, std::vector<NodeId>& hostValues) {
    if (prog_.instructions.empty()) return false;
    Instruction& prev = prog_.instructions.back();
    if (prev.kind != inst.kind || prev.arrayId != inst.arrayId) return false;
    if (inst.kind == InstKind::Shift || inst.kind == InstKind::Move ||
        inst.kind == InstKind::Xfer)
      return false;
    if (prev.rows != inst.rows) return false;
    bool prevIsCim = !prev.colOps.empty();
    bool instIsCim = !inst.colOps.empty();
    if (prevIsCim != instIsCim) return false;

    size_t prevIdx = prog_.instructions.size() - 1;
    bool prevIsHost = prog_.hostWriteValues.contains(prevIdx);
    bool instIsHost = !hostValues.empty();
    if (prevIsHost != instIsHost) return false;

    // Columns must be disjoint.
    for (int c : inst.columns)
      if (std::binary_search(prev.columns.begin(), prev.columns.end(), c))
        return false;

    // Without per-column op multiplexers all merged ops must be equal.
    if (instIsCim && !target_.perColumnOps) {
      for (ir::OpKind op : inst.colOps)
        if (op != prev.colOps.front()) return false;
    }

    // Fold: rebuild the column-sorted parallel vectors.
    struct Entry {
      int col;
      ir::OpKind op;
      bool chain;
      NodeId host;
    };
    std::vector<Entry> entries;
    auto gather = [&](const Instruction& src, const std::vector<NodeId>* hv) {
      for (size_t i = 0; i < src.columns.size(); ++i) {
        Entry e;
        e.col = src.columns[i];
        e.op = src.colOps.empty() ? ir::OpKind::And : src.colOps[i];
        e.chain = src.chainsBuffer.empty() ? false : src.chainsBuffer[i];
        e.host = hv ? (*hv)[i] : ir::kInvalidNode;
        entries.push_back(e);
      }
    };
    const std::vector<NodeId>* prevHost =
        prevIsHost ? &prog_.hostWriteValues[prevIdx] : nullptr;
    gather(prev, prevHost);
    gather(inst, instIsHost ? &hostValues : nullptr);
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.col < b.col; });

    prev.columns.clear();
    prev.colOps.clear();
    prev.chainsBuffer.clear();
    std::vector<NodeId> mergedHost;
    for (const Entry& e : entries) {
      prev.columns.push_back(e.col);
      if (instIsCim) {
        prev.colOps.push_back(e.op);
        prev.chainsBuffer.push_back(e.chain);
      }
      mergedHost.push_back(e.host);
    }
    if (prevIsHost) prog_.hostWriteValues[prevIdx] = std::move(mergedHost);
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
    NodeId v = buffer_[static_cast<size_t>(arrayId)].at(col);
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
    if (buffer_[static_cast<size_t>(where.arrayId)].count(where.col) &&
        buffer_[static_cast<size_t>(where.arrayId)][where.col] != victim)
      flushIfNeeded(where);
    emit(isa::makePlainRead(where.arrayId, {where.col}, src.row));
    prog_.stats.plainReads++;
    buffer_[static_cast<size_t>(where.arrayId)][where.col] = victim;
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
    auto& buf = buffer_[static_cast<size_t>(where.arrayId)];
    auto it = buf.find(where.col);
    if (it == buf.end()) return;
    if (needsFlush(it->second)) flushAt(where.arrayId, where.col);
  }

  /// Rotates array `arrayId`'s row buffer so the bit at `from` lands on
  /// `to`. All other latched values are flushed first (the rotation
  /// invalidates their column alignment) and dropped from tracking.
  void shiftBuffer(int arrayId, int from, int to, NodeId moved) {
    auto& buf = buffer_[static_cast<size_t>(arrayId)];
    for (const auto& [col, val] : buf)
      if (val != moved && needsFlush(val)) flushAt(arrayId, col);

    int n = target_.cols();
    int left = ((to - from) % n + n) % n;
    int right = n - left;
    if (left <= right)
      emit(isa::makeShift(arrayId, isa::ShiftDirection::Left, left));
    else
      emit(isa::makeShift(arrayId, isa::ShiftDirection::Right, right));
    prog_.stats.shifts++;
    buf.clear();
    buf[to] = moved;
  }

  // ----------------------------------------------------------- movement
  /// Makes sure `v` has a cell in column `xc`; returns its row. May emit
  /// plain reads, shifts, inter-array moves and spill writes.
  int ensureInColumn(NodeId v, ColumnRef xc) {
    if (auto cell = layout_.placementIn(v, xc)) return cell->row;

    // The movement below needs a cell for v plus possible flush targets;
    // make room up front (movement may flush one dirty buffer value here).
    reserveSpace(xc, 2);

    // Stage 1: get the bit into some row buffer of the target array.
    int bufCol = findInBuffer(xc.arrayId, v);
    if (bufCol < 0) {
      int srcArray = -1, srcCol = -1;
      for (int a = 0; a < target_.numArrays && srcArray < 0; ++a) {
        if (a == xc.arrayId) continue;
        int c = findInBuffer(a, v);
        if (c >= 0) {
          srcArray = a;
          srcCol = c;
        }
      }
      if (srcArray < 0) {
        // Load from a cell; prefer a copy in the target array.
        const auto& cells = layout_.placements(v);
        SHERLOCK_ASSERT(!cells.empty(), "value ", v,
                        " demanded but neither buffered nor placed");
        CellAddress src = cells.front();
        for (const CellAddress& c : cells)
          if (c.arrayId == xc.arrayId) {
            src = c;
            break;
          }
        if (src.arrayId != xc.arrayId) {
          // Cross-array cell source: one cell-to-cell transfer replaces
          // the buffered plain-read + move + write round trip and leaves
          // both row buffers undisturbed. The only destination the
          // transfer engine may not program is the spare-reserved repair
          // region — if the allocation was repaired there, release it
          // and fall through to the buffered path (whose write goes
          // through the normal repair machinery).
          CellAddress dstCell = layout_.allocate(v, xc);
          if (dstCell.row < layout_.mainRowLimit()) {
            emit(isa::makeXfer(src.arrayId, src.col, src.row, xc.arrayId,
                               xc.col, dstCell.row));
            prog_.stats.xfers++;
            noteLanding(v);
            touch(xc.arrayId, xc.col);
            if (!options_.reuseMovedCopies && options_.eagerWriteback)
              tempCopies_.insert({v, xc});
            return dstCell.row;
          }
          layout_.releaseCellIn(v, xc);
        }
        // The plain read clobbers the source column's buffer slot.
        if (buffer_[static_cast<size_t>(src.arrayId)].count(src.col) &&
            buffer_[static_cast<size_t>(src.arrayId)][src.col] != v)
          flushIfNeeded({src.arrayId, src.col});
        emit(isa::makePlainRead(src.arrayId, {src.col}, src.row));
        prog_.stats.plainReads++;
        buffer_[static_cast<size_t>(src.arrayId)][src.col] = v;
        srcArray = src.arrayId;
        srcCol = src.col;
      }
      if (srcArray == xc.arrayId) {
        bufCol = srcCol;
      } else {
        // Bus transfer into the target array's buffer at the target column.
        if (buffer_[static_cast<size_t>(xc.arrayId)].count(xc.col) &&
            buffer_[static_cast<size_t>(xc.arrayId)][xc.col] != v)
          flushIfNeeded(xc);
        emit(isa::makeMove(srcArray, srcCol, xc.arrayId, xc.col));
        prog_.stats.moves++;
        buffer_[static_cast<size_t>(xc.arrayId)][xc.col] = v;
        bufCol = xc.col;
      }
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
      tempCopies_.insert({v, xc});
    return cell.row;
  }

  /// Drops the scratch copies a no-reuse (naive) flow created for the op
  /// that was just emitted. Values that already died were fully released.
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
      std::vector<ColumnRef> remote;
      for (NodeId u : g_.node(v).users) {
        ColumnRef uc = plan_.opLocation[static_cast<size_t>(u)];
        if (uc.arrayId == xc.arrayId) continue;
        if (std::find(remote.begin(), remote.end(), uc) == remote.end())
          remote.push_back(uc);
      }
      for (ColumnRef rc : remote) {
        if (layout_.placementIn(v, rc)) continue;
        if (layout_.freeCells(rc) == 0) continue;
        CellAddress dst = layout_.allocate(v, rc);
        if (dst.row >= layout_.mainRowLimit()) {
          layout_.releaseCellIn(v, rc);  // spare region is XFER-illegal
          continue;
        }
        emit(isa::makeXfer(src->arrayId, src->col, src->row, rc.arrayId,
                           rc.col, dst.row));
        prog_.stats.xfers++;
        noteLanding(v);
        touch(rc.arrayId, rc.col);
      }
    }
    pendingPushes_.clear();
  }

  /// True when `v`'s nearest copy is a cell on a different array — no
  /// buffer or cell copy exists in `xc`'s array, so movement crosses the
  /// mesh. ensureInColumn serves that case with a background XFER;
  /// chaining it through a synchronous bus Move would be slower.
  bool crossArrayCellSource(NodeId v, ColumnRef xc) const {
    if (findInBuffer(xc.arrayId, v) >= 0) return false;
    const auto& cells = layout_.placements(v);
    if (cells.empty()) return false;
    for (const CellAddress& c : cells)
      if (c.arrayId == xc.arrayId) return false;
    return true;
  }

  /// Brings `v` into the row buffer of `xc` WITHOUT materializing a cell —
  /// used to chain a moved operand directly into the consuming CIM read,
  /// avoiding the write + read-after-write stall of a full movement.
  /// The caller guarantees the value is not lost (a cell copy exists
  /// elsewhere, or this is its last use).
  void bringToBuffer(NodeId v, ColumnRef xc) {
    int bufCol = findInBuffer(xc.arrayId, v);
    if (bufCol < 0) {
      // Cross-array buffer source?
      for (int a = 0; a < target_.numArrays; ++a) {
        if (a == xc.arrayId) continue;
        int c = findInBuffer(a, v);
        if (c >= 0) {
          flushIfNeeded(xc);
          emit(isa::makeMove(a, c, xc.arrayId, xc.col));
          prog_.stats.moves++;
          buffer_[static_cast<size_t>(xc.arrayId)][xc.col] = v;
          return;
        }
      }
      // Load from a cell, preferring the target array.
      const auto& cells = layout_.placements(v);
      SHERLOCK_ASSERT(!cells.empty(), "value ", v,
                      " neither buffered nor placed");
      CellAddress src = cells.front();
      for (const CellAddress& c : cells)
        if (c.arrayId == xc.arrayId) {
          src = c;
          break;
        }
      if (buffer_[static_cast<size_t>(src.arrayId)].count(src.col) &&
          buffer_[static_cast<size_t>(src.arrayId)][src.col] != v)
        flushIfNeeded({src.arrayId, src.col});
      emit(isa::makePlainRead(src.arrayId, {src.col}, src.row));
      prog_.stats.plainReads++;
      buffer_[static_cast<size_t>(src.arrayId)][src.col] = v;
      if (src.arrayId != xc.arrayId) {
        flushIfNeeded(xc);
        emit(isa::makeMove(src.arrayId, src.col, xc.arrayId, xc.col));
        prog_.stats.moves++;
        buffer_[static_cast<size_t>(xc.arrayId)][xc.col] = v;
        return;
      }
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
        Instruction w = isa::makeWrite(where.arrayId, {where.col}, cell.row);
        emit(std::move(w), {i});
        prog_.stats.hostWrites++;
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
        // Read pass, oldest operands first: an op whose operand cell was
        // written or transferred moments ago (by the drain or the
        // movement pass above) goes last, so the posted landing write
        // completes under the other ops' compute instead of stalling the
        // activating read.
        std::stable_sort(wave.begin(), wave.end(), [&](NodeId a, NodeId b) {
          return operandFreshness(a) < operandFreshness(b);
        });
        for (NodeId op : wave) emitOp(op);
      }
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
    bool chainViaMove = false;
    if (target_.bufferChaining && !options_.eagerWriteback) {
      auto safeToConsume = [&](NodeId b) {
        bool lastUse = usesLeft_[static_cast<size_t>(b)] == 1 &&
                       !isOutput_[static_cast<size_t>(b)];
        return layout_.isPlaced(b) || lastUse;
      };
      // Moved-operand candidate. Operands whose nearest copy is a cell on
      // another array are better served by ensureInColumn's background
      // XFER than by a chain move.
      for (NodeId o : operands) {
        if (layout_.placementIn(o, xc)) continue;
        if (crossArrayCellSource(o, xc)) continue;
        if (safeToConsume(o)) {
          chainVal = o;
          chainViaMove = true;
        }
      }
      if (chainVal == ir::kInvalidNode) {
        // Buffer-resident candidate; only valid if no other operand needs
        // movement (movement shifts would rotate the bit away).
        auto& buf = buffer_[static_cast<size_t>(xc.arrayId)];
        auto it = buf.find(xc.col);
        if (it != buf.end()) {
          NodeId b = it->second;
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
    // moved chain operand into the buffer last (its shift would disturb
    // nothing any more).
    std::vector<int> rows;
    for (NodeId o : operands) {
      if (o == chainVal) continue;
      rows.push_back(ensureInColumn(o, xc));
    }
    if (chainViaMove) bringToBuffer(chainVal, xc);
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
    prog_.stats.cimReads++;
    if (chainVal != ir::kInvalidNode) prog_.stats.chainedOperands++;
    buffer_[static_cast<size_t>(xc.arrayId)][xc.col] = v;
    touch(xc.arrayId, xc.col);

    if (options_.eagerWriteback && needsFlush(v)) {
      flushAt(xc.arrayId, xc.col);
    } else if (needsFlush(v)) {
      // Lazy flow, but the result has consumers on other arrays: flush it
      // to a cell now. The posted write completes during the rest of the
      // wave, and remote consumers then fetch it with a background
      // cell-to-cell XFER instead of a remote-buffer Move that would
      // serialize on the shared bus.
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
  /// Per array: column -> value currently latched in the row buffer.
  std::vector<std::map<int, NodeId>> buffer_;
  /// Per column index (arrayId * cols + col): written or computed in.
  std::vector<bool> touched_;
  int usedColumns_ = 0;
  /// The op being emitted and its operands; exempt from eviction.
  std::vector<NodeId> pinned_;
  /// Movement scratch copies of the op being emitted (no-reuse flow).
  std::set<std::pair<NodeId, ColumnRef>> tempCopies_;
  /// Results with remote consumers, queued for the next wave's
  /// transfer-push drain (lazy flow only).
  std::vector<std::pair<NodeId, ColumnRef>> pendingPushes_;
  /// Per value: emission index of its latest cell-landing instruction.
  std::vector<long> lastLanding_;
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
