#include "verify/verifier.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <utility>

#include "support/diagnostics.h"
#include "support/hash_index.h"

namespace sherlock::verify {

using ir::NodeId;
using ir::OpKind;
using isa::InstKind;
using isa::Instruction;

const char* ruleName(Rule rule) {
  switch (rule) {
    case Rule::AddressBounds: return "address-bounds";
    case Rule::InstructionShape: return "instruction-shape";
    case Rule::MraExceeded: return "mra-exceeded";
    case Rule::PerColumnOps: return "per-column-ops";
    case Rule::BufferChaining: return "buffer-chaining";
    case Rule::OperandArity: return "operand-arity";
    case Rule::ReadBeforeWrite: return "read-before-write";
    case Rule::BufferLiveness: return "buffer-liveness";
    case Rule::HostWriteMetadata: return "host-write-metadata";
    case Rule::OutputPlacement: return "output-placement";
    case Rule::FaultAvoidance: return "fault-avoidance";
    case Rule::TransferLegality: return "transfer-legality";
    case Rule::ValueEquivalence: return "value-equivalence";
  }
  return "unknown";
}

std::string Violation::toString() const {
  std::ostringstream os;
  if (instructionIndex != kNoInstruction)
    os << "instruction " << instructionIndex << ": ";
  os << ruleName(rule) << ": " << message;
  return os.str();
}

std::string VerifyResult::summary() const {
  std::string out;
  for (const Violation& v : violations) {
    out += v.toString();
    out += '\n';
  }
  return out;
}

namespace {

/// Hash-consed symbolic values. Two expressions receive the same id iff
/// they are equal under the scouting-logic algebra restricted to the
/// rewrites the mappers perform: operand order/duplication normalization
/// of the associative-commutative ops, the Copy/Not degenerations of
/// collapsed binary ops, and NAND/NOR/XNOR as negated AND/OR/XOR.
///
/// Storage is flat: every expression key (tag, then sorted operands) lives
/// in one arena, a HashIndex (the one ir::Graph uses) indexes the keys,
/// and negation links are a vector indexed by value number. Each is sized
/// once from the graph (`expected` = its node count) rather than grown by
/// doubling, which would leave a trail of freed blocks in the heap.
class ValueTable {
 public:
  explicit ValueTable(size_t expected) {
    index_.reserve(expected);
    negation_.reserve(2 * expected);
    exprs_.reserve(expected);
    arena_.reserve(4 * expected);
    constFalse_ = fresh();
    constTrue_ = fresh();
    negation_[static_cast<size_t>(constFalse_)] = constTrue_;
    negation_[static_cast<size_t>(constTrue_)] = constFalse_;
  }

  int leafConst(bool value) { return value ? constTrue_ : constFalse_; }

  int leafInput(const std::string& name) {
    auto [it, inserted] = inputs_.try_emplace(name, 0);
    if (inserted) it->second = fresh();
    return it->second;
  }

  /// A value of unknown provenance (used to keep verification going after
  /// a dataflow violation without cascading mismatches).
  int opaque() { return fresh(); }

  /// Canonicalized application of `op` over operand value numbers.
  /// Returns -1 if the arity is invalid for the op (reported separately).
  int apply(OpKind op, std::span<const int> operands) {
    switch (op) {
      case OpKind::Copy:
        return operands.size() == 1 ? operands[0] : -1;
      case OpKind::Not:
        return operands.size() == 1 ? negate(operands[0]) : -1;
      case OpKind::And:
      case OpKind::Or:
      case OpKind::Nand:
      case OpKind::Nor: {
        if (operands.empty()) return -1;
        scratch_.assign(operands.begin(), operands.end());
        std::sort(scratch_.begin(), scratch_.end());
        scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                       scratch_.end());
        bool isOr = op == OpKind::Or || op == OpKind::Nor;
        int base = scratch_.size() == 1 ? scratch_[0]
                                        : cons(isOr ? Tag::Or : Tag::And);
        bool negated = op == OpKind::Nand || op == OpKind::Nor;
        return negated ? negate(base) : base;
      }
      case OpKind::Xor:
      case OpKind::Xnor: {
        // Parity: duplicate operands cancel pairwise.
        scratch_.assign(operands.begin(), operands.end());
        std::sort(scratch_.begin(), scratch_.end());
        size_t kept = 0;
        for (size_t i = 0; i < scratch_.size();) {
          if (i + 1 < scratch_.size() && scratch_[i] == scratch_[i + 1]) {
            i += 2;
          } else {
            scratch_[kept++] = scratch_[i++];
          }
        }
        scratch_.resize(kept);
        int base = kept == 0   ? constFalse_
                   : kept == 1 ? scratch_[0]
                               : cons(Tag::Xor);
        return op == OpKind::Xnor ? negate(base) : base;
      }
    }
    return -1;
  }

 private:
  enum class Tag { And, Or, Xor };

  /// One interned expression: its key is arena_[offset, offset + length).
  struct Expr {
    uint32_t offset;
    uint32_t length;
    int vn;
  };

  int fresh() {
    negation_.push_back(-1);
    return static_cast<int>(negation_.size()) - 1;
  }

  /// Interns (tag, scratch_) and returns its value number.
  int cons(Tag tag) {
    uint64_t mix = 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(tag) + 1);
    for (int v : scratch_) {
      mix ^= static_cast<uint32_t>(v);
      mix *= 0xff51afd7ed558ccdull;
      mix ^= mix >> 32;
    }
    auto length = static_cast<uint32_t>(scratch_.size() + 1);
    auto same = [&](int32_t expr) {
      const Expr& e = exprs_[static_cast<size_t>(expr)];
      return e.length == length && arena_[e.offset] == static_cast<int>(tag) &&
             std::equal(scratch_.begin(), scratch_.end(),
                        arena_.begin() + static_cast<long>(e.offset) + 1);
    };
    auto make = [&] {
      SHERLOCK_ASSERT(arena_.size() + length <= UINT32_MAX,
                      "value table arena exceeds 32-bit offsets");
      exprs_.push_back({static_cast<uint32_t>(arena_.size()), length, fresh()});
      arena_.push_back(static_cast<int>(tag));
      arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
      return static_cast<int32_t>(exprs_.size() - 1);
    };
    int32_t expr =
        index_.findOrInsert(static_cast<uint32_t>(mix), same, make);
    return exprs_[static_cast<size_t>(expr)].vn;
  }

  /// NOT via a bidirectional link, so Not(Not(x)) == x by construction.
  int negate(int v) {
    int n = negation_[static_cast<size_t>(v)];
    if (n >= 0) return n;
    n = fresh();
    negation_[static_cast<size_t>(v)] = n;
    negation_[static_cast<size_t>(n)] = v;
    return n;
  }

  int constFalse_ = -1;
  int constTrue_ = -1;
  std::map<std::string, int> inputs_;
  std::vector<int> arena_;
  std::vector<Expr> exprs_;
  HashIndex index_;            ///< hash of each key -> index into exprs_
  std::vector<int> negation_;  ///< per value number; -1 = none yet
  std::vector<int> scratch_;   ///< operands being canonicalized
};

/// Symbolic state of one array: a value number per cell and per
/// row-buffer slot; -1 = unwritten cell / invalid buffer bit. Cells are
/// paged by row: a row's page is handed out of one pool on the row's
/// first write, so a kernel that touches a few rows of a large array pays
/// for those rows only. The pool reserves the whole array up front, so it
/// never moves; only the pages of written rows are ever touched. The row
/// buffer is a ring: logical column c sits in slot (c - offset) mod cols,
/// so a shift moves the offset and no bit.
class ArraySym {
 public:
  ArraySym(int rows, int cols)
      : cols_(cols),
        pageOf_(static_cast<size_t>(rows), -1),
        buffer_(static_cast<size_t>(cols), -1) {
    cells_.reserve(static_cast<size_t>(rows) * static_cast<size_t>(cols));
  }

  int cell(int row, int col) const {
    int page = pageOf_[static_cast<size_t>(row)];
    return page < 0 ? -1 : cells_[pageStart(page) + static_cast<size_t>(col)];
  }

  void setCell(int row, int col, int vn) {
    int& page = pageOf_[static_cast<size_t>(row)];
    if (page < 0) {
      page = static_cast<int>(cells_.size() / static_cast<size_t>(cols_));
      cells_.resize(cells_.size() + static_cast<size_t>(cols_), -1);
    }
    cells_[pageStart(page) + static_cast<size_t>(col)] = vn;
  }

  int buffer(int col) const { return buffer_[slot(col)]; }

  void setBuffer(int col, int vn) {
    int& bit = buffer_[slot(col)];
    valid_ += (vn >= 0 ? 1 : 0) - (bit >= 0 ? 1 : 0);
    bit = vn;
  }

  /// True when no buffer slot holds a live bit.
  bool bufferEmpty() const { return valid_ == 0; }

  /// Left rotation by d in [0, cols): column c moves to (c + d) mod cols.
  void rotate(int d) { offset_ = (offset_ + d) % cols_; }

 private:
  size_t pageStart(int page) const {
    return static_cast<size_t>(page) * static_cast<size_t>(cols_);
  }
  size_t slot(int col) const {
    int s = col - offset_;
    return static_cast<size_t>(s < 0 ? s + cols_ : s);
  }

  int cols_;
  int offset_ = 0;  ///< rotation of the buffer, in [0, cols)
  int valid_ = 0;   ///< buffer slots holding a live bit
  std::vector<int> pageOf_;  ///< per row: page index, or -1 if unwritten
  std::vector<int> cells_;   ///< pages of cols value numbers each
  std::vector<int> buffer_;
};

class Verifier {
 public:
  Verifier(const ir::Graph& g, const isa::TargetSpec& target,
           const mapping::Program& program, const VerifyOptions& options)
      : g_(g),
        target_(target),
        prog_(program),
        options_(options),
        leafVn_(g.numNodes(), -1),
        arrays_(static_cast<size_t>(target.numArrays)) {}

  VerifyResult run() {
    checkHostWriteTable();
    for (size_t idx = 0; idx < prog_.instructions.size() && !full(); ++idx) {
      const Instruction& inst = prog_.instructions[idx];
      result_.checkedInstructions++;
      if (auto v = checkInstructionRules(inst, target_, idx)) {
        report(*v);
        continue;  // malformed shape: skip the dataflow interpretation
      }
      interpret(idx, inst);
    }
    if (!full()) checkOutputs();
    return std::move(result_);
  }

 private:
  bool full() const {
    return result_.violations.size() >= options_.maxViolations;
  }

  void report(Violation v) {
    if (!full()) result_.violations.push_back(std::move(v));
  }

  void report(Rule rule, size_t idx, int arrayId, int row, int col,
              std::string message) {
    Violation v;
    v.rule = rule;
    v.instructionIndex = idx;
    v.arrayId = arrayId;
    v.row = row;
    v.col = col;
    v.message = std::move(message);
    report(std::move(v));
  }

  ArraySym& arrayAt(int a) {
    auto& slot = arrays_[static_cast<size_t>(a)];
    if (!slot) slot.emplace(target_.rows(), target_.cols());
    return *slot;
  }

  /// Value number of a leaf node, shared with the graph-side evaluation.
  int leafVn(NodeId id) {
    int& vn = leafVn_[static_cast<size_t>(id)];
    if (vn < 0) {
      const ir::Node& n = g_.node(id);
      vn = n.isConst() ? values_.leafConst(n.constValue)
                       : values_.leafInput(n.name);
    }
    return vn;
  }

  // ------------------------------------------------- program-level checks
  void checkHostWriteTable() {
    for (const auto& [idx, leaves] : prog_.hostWriteValues) {
      if (idx >= prog_.instructions.size()) {
        report(Rule::HostWriteMetadata, Violation::kNoInstruction, -1, -1, -1,
               strCat("hostWriteValues references instruction ", idx,
                      " of a ", prog_.instructions.size(),
                      "-instruction program"));
        continue;
      }
      const Instruction& inst = prog_.instructions[idx];
      if (inst.kind != InstKind::Write) {
        report(Rule::HostWriteMetadata, idx, inst.arrayId, -1, -1,
               "hostWriteValues entry on a non-write instruction");
        continue;
      }
      if (leaves.size() != inst.columns.size()) {
        report(Rule::HostWriteMetadata, idx, inst.arrayId, -1, -1,
               strCat("host write carries ", leaves.size(), " values for ",
                      inst.columns.size(), " columns"));
        continue;
      }
      for (NodeId leaf : leaves) {
        if (leaf < g_.firstId() || leaf >= g_.endId()) {
          report(Rule::HostWriteMetadata, idx, inst.arrayId, -1, -1,
                 strCat("host write of out-of-range node ", leaf));
        } else if (g_.node(leaf).isOp()) {
          report(Rule::HostWriteMetadata, idx, inst.arrayId, -1, -1,
                 strCat("host write of non-leaf node ", leaf));
        }
      }
    }
  }

  // --------------------------------------------- dataflow interpretation
  void interpret(size_t idx, const Instruction& inst) {
    checkFaultAvoidance(idx, inst);
    ArraySym& arr = arrayAt(inst.arrayId);
    switch (inst.kind) {
      case InstKind::Read: interpretRead(idx, inst, arr); break;
      case InstKind::Write: interpretWrite(idx, inst, arr); break;
      case InstKind::Shift: interpretShift(idx, inst, arr); break;
      case InstKind::Xfer: interpretXfer(idx, inst, arr); break;
    }
  }

  /// FaultAvoidance: no sensed or programmed cell may be stuck-at. Weak
  /// cells are legal at run time (guarded execution absorbs them); stuck
  /// cells are not — their value is physically fixed.
  void checkFaultAvoidance(size_t idx, const Instruction& inst) {
    const device::FaultMap* fm = options_.faultMap;
    if (!fm) return;
    if (inst.kind == InstKind::Xfer) {
      // Both endpoint cells must be fault-free: the source is sensed,
      // the destination programmed, and neither goes through the guarded
      // row-buffer path that could absorb a pinned bit.
      if (fm->isStuck(inst.arrayId, inst.rows[0], inst.columns[0]))
        report(Rule::FaultAvoidance, idx, inst.arrayId, inst.rows[0],
               inst.columns[0],
               strCat("transfer senses stuck-at-",
                      fm->stuckBit(inst.arrayId, inst.rows[0],
                                   inst.columns[0])
                          ? "HRS"
                          : "LRS",
                      " source cell (array ", inst.arrayId, ", row ",
                      inst.rows[0], ", col ", inst.columns[0], ")"));
      if (fm->isStuck(inst.dstArray, inst.dstRow, inst.dstCol))
        report(Rule::FaultAvoidance, idx, inst.dstArray, inst.dstRow,
               inst.dstCol,
               strCat("transfer targets stuck-at-",
                      fm->stuckBit(inst.dstArray, inst.dstRow, inst.dstCol)
                          ? "HRS"
                          : "LRS",
                      " destination cell (array ", inst.dstArray, ", row ",
                      inst.dstRow, ", col ", inst.dstCol, ")"));
      return;
    }
    if (inst.kind != InstKind::Read && inst.kind != InstKind::Write) return;
    for (int c : inst.columns) {
      for (int r : inst.rows) {
        if (!fm->isStuck(inst.arrayId, r, c)) continue;
        report(Rule::FaultAvoidance, idx, inst.arrayId, r, c,
               strCat(inst.kind == InstKind::Read ? "read senses"
                                                  : "write targets",
                      " stuck-at-",
                      fm->stuckBit(inst.arrayId, r, c) ? "HRS" : "LRS",
                      " cell (array ", inst.arrayId, ", row ", r, ", col ",
                      c, ")"));
        if (full()) return;
      }
    }
  }

  void interpretRead(size_t idx, const Instruction& inst, ArraySym& arr) {
    // Phase 1: evaluate every column against the pre-read state (chained
    // bits see the buffer as it was before this instruction commits).
    newBits_.assign(inst.columns.size(), -1);
    for (size_t i = 0; i < inst.columns.size(); ++i) {
      int c = inst.columns[i];
      operands_.clear();
      bool bad = false;
      for (int r : inst.rows) {
        int vn = arr.cell(r, c);
        if (vn < 0) {
          report(Rule::ReadBeforeWrite, idx, inst.arrayId, r, c,
                 strCat("read of unwritten cell (array ", inst.arrayId,
                        ", row ", r, ", col ", c, ")"));
          bad = true;
        }
        operands_.push_back(vn);
      }
      if (inst.colOps.empty()) {
        newBits_[i] = bad ? values_.opaque() : operands_[0];
        continue;
      }
      if (inst.chainsBuffer[i]) {
        int vn = arr.buffer(c);
        if (vn < 0) {
          report(Rule::BufferLiveness, idx, inst.arrayId, -1, c,
                 strCat("chained read of invalid buffer column ", c,
                        " (no prior read produced it)"));
          bad = true;
        }
        operands_.push_back(vn);
      }
      newBits_[i] =
          bad ? values_.opaque() : values_.apply(inst.colOps[i], operands_);
      if (newBits_[i] < 0) {
        // Arity mismatch already reported by the rule check; keep going.
        newBits_[i] = values_.opaque();
      }
      if (full()) return;
    }
    // Phase 2: commit the sensed bits to the row buffer.
    for (size_t i = 0; i < inst.columns.size(); ++i)
      arr.setBuffer(inst.columns[i], newBits_[i]);
  }

  void interpretWrite(size_t idx, const Instruction& inst, ArraySym& arr) {
    int row = inst.rows[0];
    auto hostIt = prog_.hostWriteValues.find(idx);
    bool host = hostIt != prog_.hostWriteValues.end() &&
                hostIt->second.size() == inst.columns.size();
    for (size_t i = 0; i < inst.columns.size(); ++i) {
      int c = inst.columns[i];
      int vn;
      if (host) {
        NodeId leaf = hostIt->second[i];
        vn = (leaf >= g_.firstId() && leaf < g_.endId() &&
              !g_.node(leaf).isOp())
                 ? leafVn(leaf)
                 : values_.opaque();
      } else {
        vn = arr.buffer(c);
        if (vn < 0) {
          report(Rule::BufferLiveness, idx, inst.arrayId, row, c,
                 strCat("write from invalid buffer column ", c,
                        " (no prior read produced it)"));
          vn = values_.opaque();
        }
      }
      arr.setCell(row, c, vn);
    }
  }

  void interpretShift(size_t idx, const Instruction& inst, ArraySym& arr) {
    int cols = target_.cols();
    if (arr.bufferEmpty())
      report(Rule::BufferLiveness, idx, inst.arrayId, -1, -1,
             "shift of an empty row buffer moves no live bit");
    int d = inst.shiftDistance % cols;
    if (inst.shiftDirection == isa::ShiftDirection::Right) d = (cols - d) % cols;
    arr.rotate(d);
  }

  /// Xfer: cell-to-cell across arrays. The symbolic value number crosses
  /// the array boundary with the bit, which is what lets the
  /// ValueEquivalence proof follow outputs through arbitrary transfer
  /// chains. Row buffers are untouched on both sides.
  void interpretXfer(size_t idx, const Instruction& inst, ArraySym& arr) {
    if (options_.spareRows > 0 &&
        inst.dstRow >= target_.rows() - options_.spareRows) {
      report(Rule::TransferLegality, idx, inst.dstArray, inst.dstRow,
             inst.dstCol,
             strCat("transfer into spare-reserved row ", inst.dstRow,
                    " of array ", inst.dstArray, " (repair region is rows [",
                    target_.rows() - options_.spareRows, ", ",
                    target_.rows(), "))"));
    }
    int srcRow = inst.rows[0], srcCol = inst.columns[0];
    int vn = arr.cell(srcRow, srcCol);
    if (vn < 0) {
      report(Rule::ReadBeforeWrite, idx, inst.arrayId, srcRow, srcCol,
             strCat("transfer of unwritten cell (array ", inst.arrayId,
                    ", row ", srcRow, ", col ", srcCol, ")"));
      vn = values_.opaque();
    }
    arrayAt(inst.dstArray).setCell(inst.dstRow, inst.dstCol, vn);
  }

  // -------------------------------------------------------- output checks
  void checkOutputs() {
    // The equivalence comparison is only meaningful on a structurally
    // clean program; after violations the symbolic state holds opaque
    // placeholders that would produce noise mismatches.
    bool equivalence =
        options_.checkEquivalence && result_.violations.empty();
    std::vector<int> graphVn;
    if (equivalence) graphVn = evaluateGraph();

    for (NodeId out : g_.outputs()) {
      if (full()) return;
      auto it = prog_.outputCells.find(out);
      if (it == prog_.outputCells.end()) {
        report(Rule::OutputPlacement, Violation::kNoInstruction, -1, -1, -1,
               strCat("output ", out, " has no recorded cell"));
        continue;
      }
      const mapping::CellAddress& cell = it->second;
      if (cell.arrayId < 0 || cell.arrayId >= target_.numArrays ||
          cell.row < 0 || cell.row >= target_.rows() || cell.col < 0 ||
          cell.col >= target_.cols()) {
        report(Rule::OutputPlacement, Violation::kNoInstruction,
               cell.arrayId, cell.row, cell.col,
               strCat("output ", out, " cell (array ", cell.arrayId,
                      ", row ", cell.row, ", col ", cell.col,
                      ") is out of bounds"));
        continue;
      }
      const auto& arr = arrays_[static_cast<size_t>(cell.arrayId)];
      int vn = arr ? arr->cell(cell.row, cell.col) : -1;
      if (vn < 0) {
        report(Rule::OutputPlacement, Violation::kNoInstruction,
               cell.arrayId, cell.row, cell.col,
               strCat("output ", out, " cell (array ", cell.arrayId,
                      ", row ", cell.row, ", col ", cell.col,
                      ") was never written"));
        continue;
      }
      if (equivalence && vn != graphVn[static_cast<size_t>(out)]) {
        report(Rule::ValueEquivalence, Violation::kNoInstruction,
               cell.arrayId, cell.row, cell.col,
               strCat("output ", out, " cell (array ", cell.arrayId,
                      ", row ", cell.row, ", col ", cell.col,
                      ") holds a different symbolic value than the DAG "
                      "computes"));
      }
    }
  }

  /// Canonical value number of every graph node, via the same table the
  /// program interpretation uses (ids are topologically ordered).
  std::vector<int> evaluateGraph() {
    std::vector<int> vn(g_.numNodes(), -1);
    for (NodeId i = g_.firstId(); i < g_.endId(); ++i) {
      const ir::Node& n = g_.node(i);
      if (!n.isOp()) {
        vn[static_cast<size_t>(i)] = leafVn(i);
        continue;
      }
      operands_.clear();
      for (NodeId o : n.operands)
        operands_.push_back(vn[static_cast<size_t>(o)]);
      int v = values_.apply(n.op, operands_);
      vn[static_cast<size_t>(i)] = v < 0 ? values_.opaque() : v;
    }
    return vn;
  }

  const ir::Graph& g_;
  const isa::TargetSpec& target_;
  const mapping::Program& prog_;
  VerifyOptions options_;

  VerifyResult result_;
  ValueTable values_{g_.numNodes()};
  std::vector<int> leafVn_;  ///< per NodeId; -1 = not yet numbered
  std::vector<std::optional<ArraySym>> arrays_;  ///< per array id
  // Scratch reused across instructions and graph nodes.
  std::vector<int> operands_;
  std::vector<int> newBits_;
};

Violation makeRuleViolation(Rule rule, size_t idx, const Instruction& inst,
                            std::string message) {
  Violation v;
  v.rule = rule;
  v.instructionIndex = idx;
  v.arrayId = inst.arrayId;
  v.message = std::move(message);
  return v;
}

}  // namespace

std::optional<Violation> checkInstructionRules(const Instruction& inst,
                                               const isa::TargetSpec& target,
                                               size_t index) {
  const int rows = target.rows();
  const int cols = target.cols();
  auto bounds = [&](std::string message) {
    return makeRuleViolation(Rule::AddressBounds, index, inst,
                             std::move(message));
  };
  auto shape = [&](std::string message) {
    return makeRuleViolation(Rule::InstructionShape, index, inst,
                             std::move(message));
  };

  if (inst.arrayId < 0 || inst.arrayId >= target.numArrays)
    return bounds(strCat("array id ", inst.arrayId, " outside [0, ",
                         target.numArrays, ")"));

  if (inst.kind == InstKind::Shift) {
    if (inst.shiftDistance < 1 || inst.shiftDistance >= cols)
      return shape(strCat("shift distance ", inst.shiftDistance,
                          " outside [1, ", cols, ")"));
    return std::nullopt;
  }

  if (inst.kind == InstKind::Xfer) {
    if (inst.columns.size() != 1)
      return shape(strCat("xfer takes one source column, got ",
                          inst.columns.size()));
    if (inst.rows.size() != 1)
      return shape(strCat("xfer takes one source row, got ",
                          inst.rows.size()));
    if (!inst.colOps.empty()) return shape("xfer carries column ops");
    if (inst.columns[0] < 0 || inst.columns[0] >= cols)
      return bounds(strCat("xfer source column ", inst.columns[0],
                           " outside [0, ", cols, ")"));
    if (inst.rows[0] < 0 || inst.rows[0] >= rows)
      return bounds(strCat("xfer source row ", inst.rows[0], " outside [0, ",
                           rows, ")"));
    if (inst.dstArray < 0 || inst.dstArray >= target.numArrays)
      return bounds(strCat("xfer destination array ", inst.dstArray,
                           " outside [0, ", target.numArrays, ")"));
    if (inst.dstCol < 0 || inst.dstCol >= cols)
      return bounds(strCat("xfer destination column ", inst.dstCol,
                           " outside [0, ", cols, ")"));
    if (inst.dstRow < 0 || inst.dstRow >= rows)
      return bounds(strCat("xfer destination row ", inst.dstRow,
                           " outside [0, ", rows, ")"));
    if (inst.dstArray == inst.arrayId) {
      Violation v = makeRuleViolation(
          Rule::TransferLegality, index, inst,
          strCat("transfer within array ", inst.arrayId,
                 "; same-array movement is shift/write territory"));
      v.col = inst.dstCol;
      v.row = inst.dstRow;
      return v;
    }
    return std::nullopt;
  }

  // Read / Write.
  if (inst.columns.empty()) return shape("read/write addresses no column");
  for (int c : inst.columns)
    if (c < 0 || c >= cols)
      return bounds(strCat("column ", c, " outside [0, ", cols, ")"));
  for (int r : inst.rows)
    if (r < 0 || r >= rows)
      return bounds(strCat("row ", r, " outside [0, ", rows, ")"));
  if (!std::is_sorted(inst.columns.begin(), inst.columns.end()) ||
      std::adjacent_find(inst.columns.begin(), inst.columns.end()) !=
          inst.columns.end())
    return shape("columns must be ascending and unique");
  if (!std::is_sorted(inst.rows.begin(), inst.rows.end()) ||
      std::adjacent_find(inst.rows.begin(), inst.rows.end()) !=
          inst.rows.end())
    return shape("rows must be ascending and unique");

  if (inst.kind == InstKind::Write) {
    if (inst.rows.size() != 1)
      return shape(strCat("write takes exactly one destination row, got ",
                          inst.rows.size()));
    if (!inst.colOps.empty()) return shape("write carries column ops");
    return std::nullopt;
  }

  // Read.
  if (inst.colOps.empty()) {
    if (inst.rows.size() != 1)
      return shape(strCat("plain read activates exactly one row, got ",
                          inst.rows.size()));
    if (!inst.chainsBuffer.empty())
      return shape("plain read carries chain flags");
    return std::nullopt;
  }

  // CIM read: every sensed column shares the single activated row set by
  // encoding; the op/chain vectors must parallel the column list.
  if (inst.colOps.size() != inst.columns.size())
    return shape(strCat(inst.colOps.size(), " ops for ",
                        inst.columns.size(), " columns"));
  if (inst.chainsBuffer.size() != inst.colOps.size())
    return shape(strCat(inst.chainsBuffer.size(), " chain flags for ",
                        inst.colOps.size(), " ops"));

  if (static_cast<int>(inst.rows.size()) > target.mraLimit()) {
    Violation v = makeRuleViolation(
        Rule::MraExceeded, index, inst,
        strCat("CIM read activates ", inst.rows.size(),
               " rows, exceeding the MRA limit ", target.mraLimit(), " of ",
               target.tech.name));
    return v;
  }

  if (!target.perColumnOps)
    for (OpKind op : inst.colOps)
      if (op != inst.colOps.front())
        return makeRuleViolation(
            Rule::PerColumnOps, index, inst,
            "target lacks per-column op multiplexers but the instruction "
            "mixes operations");

  for (size_t i = 0; i < inst.colOps.size(); ++i) {
    bool chains = inst.chainsBuffer[i];
    // Before the arity rule, which an unchained rowless column (zero
    // sensed bits) would otherwise always trip first.
    if (inst.rows.empty() && !chains)
      return shape(strCat("rowless read requires every column to chain; "
                          "column ", inst.columns[i], " does not"));
    if (chains && !target.bufferChaining)
      return makeRuleViolation(
          Rule::BufferChaining, index, inst,
          strCat("column ", inst.columns[i],
                 " chains the row buffer but the target does not support "
                 "operand chaining"));
    int operandBits = static_cast<int>(inst.rows.size()) + (chains ? 1 : 0);
    if (ir::isUnary(inst.colOps[i])) {
      if (operandBits != 1)
        return makeRuleViolation(
            Rule::OperandArity, index, inst,
            strCat(ir::opName(inst.colOps[i]), " on column ",
                   inst.columns[i], " senses ", operandBits,
                   " bits; unary ops take exactly one"));
    } else if (operandBits < 2) {
      return makeRuleViolation(
          Rule::OperandArity, index, inst,
          strCat(ir::opName(inst.colOps[i]), " on column ", inst.columns[i],
                 " senses ", operandBits, " bits; needs at least two"));
    }
  }
  return std::nullopt;
}

VerifyResult verifyProgram(const ir::Graph& g, const isa::TargetSpec& target,
                           const mapping::Program& program,
                           const VerifyOptions& options) {
  if (options.faultMap)
    checkArg(options.faultMap->numArrays() == target.numArrays &&
                 options.faultMap->rows() == target.rows() &&
                 options.faultMap->cols() == target.cols(),
             "fault map dimensions do not match the verification target");
  return Verifier(g, target, program, options).run();
}

void checkProgram(const ir::Graph& g, const isa::TargetSpec& target,
                  const mapping::Program& program,
                  const VerifyOptions& options) {
  VerifyResult result = verifyProgram(g, target, program, options);
  if (result.ok()) return;
  const Violation& first = result.violations.front();
  long index = first.instructionIndex == Violation::kNoInstruction
                   ? VerificationError::kNoInstruction
                   : static_cast<long>(first.instructionIndex);
  throw VerificationError(
      strCat("program verification failed (", result.violations.size(),
             " violation", result.violations.size() == 1 ? "" : "s",
             "):\n", result.summary()),
      ruleName(first.rule), index);
}

}  // namespace sherlock::verify
