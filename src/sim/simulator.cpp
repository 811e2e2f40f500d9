#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "device/reliability.h"
#include "ir/evaluator.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/trace.h"
#include "verify/verifier.h"

namespace sherlock::sim {

using ir::NodeId;
using isa::InstKind;
using isa::Instruction;

namespace {

constexpr double kBufferOpLatencyNs = 0.5;   // rowless row-buffer logic

// Under guarded execution, a sense whose effective P_DF exceeds this gets
// a check read. At two activated rows it splits the paper's technologies:
// every STT-MRAM scouting sense lies above it (AND: 8.0e-8) and every
// ReRAM one below (XOR: 7.7e-15), so guarding costs a two-row ReRAM
// program nothing.
constexpr double kGuardPdfThreshold = 1e-9;

/// Functional state of one array: cells + row buffer, W packed 64-bit
/// lane words per cell position (64 * W bulk slices simulated at once).
/// Everything lives in flat contiguous uint64_t arrays — including the
/// written/valid bookkeeping, which previously sat in std::vector<bool>
/// bitmaps whose proxy references defeat autovectorization of the copy
/// and combine loops. Cell state is paged by row: a row's page is
/// allocated on the row's first write, so a program that writes a few
/// rows of a large array pays for those rows only. A row without a page
/// holds no written cell and no pending write. The row buffer is a ring:
/// logical column c sits in slot (c - offset) mod cols, so a shift moves
/// the offset and no bit.
struct ArrayState {
  /// Cell state of one written row.
  struct Row {
    Row(int cols, size_t laneWords)
        : cells(static_cast<size_t>(cols) * laneWords, 0),
          written((static_cast<size_t>(cols) + 63) / 64, 0),
          writeReadyNs(static_cast<size_t>(cols), 0.0),
          writeIndex(static_cast<size_t>(cols), -1) {}

    bool isWritten(int col) const {
      return (written[static_cast<size_t>(col) >> 6] >> (col & 63)) & 1;
    }
    void markWritten(int col) {
      written[static_cast<size_t>(col) >> 6] |= uint64_t{1} << (col & 63);
    }

    std::vector<uint64_t> cells;    ///< cols * W lane words
    std::vector<uint64_t> written;  ///< packed bitmap over columns
    /// Completion time of the last posted write per cell (the memory
    /// controller performs read-around-write: a read stalls only on the
    /// cells it actually senses).
    std::vector<double> writeReadyNs;
    /// Instruction index of the last posted write per cell (stall tracing).
    std::vector<long> writeIndex;
  };

  ArrayState(int rows, int cols, int laneWords)
      : cols_(cols),
        W_(static_cast<size_t>(laneWords)),
        rowPages(static_cast<size_t>(rows)),
        buffer(static_cast<size_t>(cols) * W_, 0),
        bufferValid((static_cast<size_t>(cols) + 63) / 64, 0) {}

  /// The row's page, or nullptr if the row was never written.
  const Row* rowAt(int row) const {
    return rowPages[static_cast<size_t>(row)].get();
  }
  /// The row's page, allocated on first use (writes only).
  Row& writableRow(int row) {
    auto& page = rowPages[static_cast<size_t>(row)];
    if (!page) page = std::make_unique<Row>(cols_, W_);
    return *page;
  }
  uint64_t* cellWords(Row& row, int col) {
    return row.cells.data() + static_cast<size_t>(col) * W_;
  }
  const uint64_t* cellWords(const Row& row, int col) const {
    return row.cells.data() + static_cast<size_t>(col) * W_;
  }
  uint64_t* bufferWords(int col) { return buffer.data() + slot(col) * W_; }
  bool bufferIsValid(int col) const {
    size_t s = slot(col);
    return (bufferValid[s >> 6] >> (s & 63)) & 1;
  }
  void markBufferValid(int col) {
    size_t s = slot(col);
    bufferValid[s >> 6] |= uint64_t{1} << (s & 63);
  }
  /// Left rotation by d in [0, cols): column c moves to (c + d) mod cols.
  void rotate(int d) { offset_ = (offset_ + d) % cols_; }

  size_t slot(int col) const {
    int s = col - offset_;
    return static_cast<size_t>(s < 0 ? s + cols_ : s);
  }

  int cols_;
  size_t W_;
  int offset_ = 0;  ///< rotation of the buffer, in [0, cols)
  std::vector<std::unique_ptr<Row>> rowPages;  ///< one slot per row
  std::vector<uint64_t> buffer;       ///< cols * W lane words
  std::vector<uint64_t> bufferValid;  ///< packed bitmap over columns
};

}  // namespace

double SimResult::attributedNs() const {
  return stallNs + dispatchNs + cimSenseNs + plainReadNs + bufferOpNs +
         writeIssueNs + shiftNs + xferSenseNs + guardedResenseNs + degradeNs;
}

double SimResult::attributedPj() const {
  return dispatchPj + cimSensePj + plainReadPj + bufferOpPj + hostWritePj +
         spillWritePj + shiftPj + xferPj + guardedResensePj + degradePj;
}

long SimResult::corruptedLanes() const {
  long n = 0;
  for (uint64_t w : corruptedLaneWords) n += std::popcount(w);
  return n;
}

uint64_t defaultInputWord(const std::string& name, uint64_t seed,
                          int wordIndex) {
  checkArg(wordIndex >= 0, "wordIndex must be >= 0");
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : name) h = (h ^ c) * 0x100000001b3ULL;
  Rng rng(h);
  uint64_t w = rng();
  for (int i = 0; i < wordIndex; ++i) w = rng();
  return w;
}

SimResult simulate(const ir::Graph& g, const isa::TargetSpec& target,
                   const mapping::Program& program,
                   const SimOptions& options) {
  trace::Span simSpan("sim", "simulate");
  checkArg(options.laneWords >= 1 && options.laneWords <= 4096,
           "laneWords must be in [1, 4096]");
  const size_t W = static_cast<size_t>(options.laneWords);

  if (options.staticVerify) {
    // Structural rules only: the functional run below compares outputs
    // against the reference evaluator on concrete inputs, which subsumes
    // the symbolic equivalence check. The fault map is deliberately NOT
    // passed here: simulating a program on a map it was not compiled
    // against is a supported experiment (the mismatch surfaces as
    // corruption), not a static error.
    verify::VerifyOptions vopts;
    vopts.checkEquivalence = false;
    verify::checkProgram(g, target, program, vopts);
  }

  if (options.faultMap)
    checkArg(options.faultMap->numArrays() == target.numArrays &&
                 options.faultMap->rows() == target.rows() &&
                 options.faultMap->cols() == target.cols(),
             "fault map dimensions do not match the simulation target");
  // Endurance wear-out mutates the map (rows convert to stuck past the
  // write budget), so wear runs work on a private copy; the caller's map
  // is never modified by simulation.
  std::optional<device::FaultMap> wearMap;
  if (options.faultMap && options.faultMap->options().rowWriteBudget > 0)
    wearMap = *options.faultMap;
  device::FaultMap* mutableMap = wearMap ? &*wearMap : nullptr;
  const device::FaultMap* fmap = wearMap ? &*wearMap : options.faultMap;
  // Each weak cell sensed by an op multiplies its P_DF (clamped to the
  // discrimination bound 0.5, the same ceiling the device model uses).
  auto inflatePdf = [&](double pdf, int weakCells) -> double {
    if (weakCells <= 0 || pdf <= 0.0) return pdf;
    return std::min(
        0.5, pdf * std::pow(fmap->options().weakPdfMultiplier, weakCells));
  };

  arraymodel::ArrayCostModel cost(target.geometry, target.tech);
  const int rows = target.rows();
  const int cols = target.cols();

  // Arrays materialize lazily — programs rarely touch more than a few.
  std::vector<std::unique_ptr<ArrayState>> arrays(
      static_cast<size_t>(target.numArrays));
  auto arrayAt = [&](int a) -> ArrayState& {
    auto& slot = arrays[static_cast<size_t>(a)];
    if (!slot)
      slot = std::make_unique<ArrayState>(rows, cols,
                                          static_cast<int>(W));
    return *slot;
  };

  // Resolve leaf values once per node: named inputs from options (or
  // deterministic pseudo-random words), constants to all-zeros/all-ones.
  std::map<NodeId, std::vector<uint64_t>> leafCache;
  auto leafWords = [&](NodeId id) -> const uint64_t* {
    auto cached = leafCache.find(id);
    if (cached != leafCache.end()) return cached->second.data();
    const ir::Node& n = g.node(id);
    std::vector<uint64_t> v(W, 0);
    if (n.isConst()) {
      if (n.constValue) v.assign(W, ~uint64_t{0});
    } else {
      checkArg(n.isInput(), "host write of non-leaf node ", id);
      auto wide = options.wideInputs.find(n.name);
      if (wide != options.wideInputs.end()) {
        checkArg(wide->second.size() == W,
                 "wide input '", n.name, "' has ",
                 wide->second.size(), " words, expected ", W);
        v = wide->second;
      } else {
        // Consecutive draws of one name-keyed stream (defaultInputWord's
        // contract), with the scalar map overriding lane word 0.
        uint64_t h = options.inputSeed ^ 0xcbf29ce484222325ULL;
        for (unsigned char c : n.name) h = (h ^ c) * 0x100000001b3ULL;
        Rng rng(h);
        for (size_t w = 0; w < W; ++w) v[w] = rng();
        auto it = options.inputs.find(n.name);
        if (it != options.inputs.end()) v[0] = it->second;
      }
    }
    return leafCache.emplace(id, std::move(v)).first->second.data();
  };

  SimResult result;
  result.corruptedLaneWords.assign(W, 0);
  device::AppFailureAccumulator failures;
  // P_DF per (sense kind, activated rows), filled on first use. Row
  // counts outside [1, cap] go to decisionFailureProbability, which
  // rejects them.
  const int pdfRows = std::max(target.tech.maxActivatedRows, 0) + 1;
  constexpr size_t kSenseKinds =
      static_cast<size_t>(device::SenseKind::PlainRead) + 1;
  std::vector<double> pdfTable(kSenseKinds * static_cast<size_t>(pdfRows),
                               -1.0);
  auto pdfOf = [&](device::SenseKind kind, int r) {
    if (r < 1 || r >= pdfRows)
      return device::decisionFailureProbability(target.tech, kind, r);
    double& pdf = pdfTable[static_cast<size_t>(kind) * pdfRows +
                           static_cast<size_t>(r)];
    if (pdf < 0.0)
      pdf = device::decisionFailureProbability(target.tech, kind, r);
    return pdf;
  };
  const double readNs = cost.readLatencyNs();
  const double writeIssueNs = cost.writeIssueLatencyNs();
  const double writeDoneNs = cost.writeCompletionNs();

  double now = 0.0;
  // Inter-array bus occupancy. Every xfer serializes through one flat
  // bus (busFreeNs); the transfer engine carries the sensed bit and
  // programs the destination in the background, so compute on the
  // issuing array overlaps with the movement.
  double busFreeNs = 0.0;
  Rng faultRng(options.faultSeed);
  // Monte-Carlo fault injection: toggles each of the 64 * W lanes
  // independently with probability p, via batched geometric gap sampling
  // (one draw per flip instead of one per lane — see sampleBernoulliBits).
  auto inject = [&](uint64_t* words, double p) {
    if (!options.injectFaults) return;
    result.injectedFaults += sampleBernoulliBits(faultRng, p, words, W);
  };

  // Scratch reused across instructions (no allocation in the hot loop).
  std::vector<uint64_t> newBits;              // columns * W result words
  std::vector<uint64_t> truth(W), check(W);   // per-column sense scratch
  std::vector<uint64_t> splitWords;           // degrade: per-row samples
  std::vector<int> weakPerCol;
  std::vector<uint8_t> plainStuck;            // plain read of a stuck cell
  std::vector<const uint64_t*> opPtrs, splitPtrs;
  std::vector<uint8_t> opStuck;
  // Fault planes of the rows a read senses, one view per entry of
  // inst.rows (fault map only): the read loop tests their bits.
  std::vector<device::FaultMap::RowWords> rowFaults;
  const std::vector<uint64_t> onesW(W, ~uint64_t{0});
  const std::vector<uint64_t> zerosW(W, 0);

  // Host-write entries in instruction order: a cursor that follows the
  // loop, so a write looks at one entry instead of searching the map.
  auto hostNext = program.hostWriteValues.begin();
  const auto hostEnd = program.hostWriteValues.end();

  trace::Tracer& tracer = trace::Tracer::instance();
  // The detect-and-retry loop of every guarded sense (scouting op, plain
  // read, transfer source): `value` holds the first sample; value/check
  // pairs are re-sensed from `truthW` until they agree or the retry
  // budget runs out. Returns the senses spent. The pair in `value` and
  // `check` still disagrees only after an exhausted budget; scouting ops
  // then degrade, while plain reads and transfers (already at MRA 1)
  // keep the last sample.
  auto guardedSample = [&](size_t idx, const uint64_t* truthW,
                           double effPdf, uint64_t* value) -> int {
    result.guardedOps++;
    std::copy_n(truthW, W, check.data());
    inject(check.data(), effPdf);
    int senses = 2;
    int tries = 0;
    while (!std::equal(value, value + W, check.data()) &&
           tries < options.retryBudget) {
      ++tries;
      result.retriedOps++;
      if (tracer.enabled())
        tracer.instant("sim", "guarded_retry",
                       strCat("\"instruction\": ", idx, ", \"try\": ", tries));
      std::copy_n(truthW, W, value);
      inject(value, effPdf);
      std::copy_n(truthW, W, check.data());
      inject(check.data(), effPdf);
      senses += 2;
    }
    return senses;
  };
  // Endurance: one programming pulse on the row; crossing the budget
  // converts its cells to stuck-at-LRS inside noteRowWrite, so this write
  // and later reads of the row see the pinned state.
  auto wearRow = [&](size_t idx, int arrayId, int row) {
    if (!mutableMap) return;
    long count = mutableMap->noteRowWrite(arrayId, row);
    if (count != mutableMap->options().rowWriteBudget + 1) return;
    result.wornRows++;
    if (tracer.enabled())
      tracer.instant("sim", "wear_out",
                     strCat("\"instruction\": ", idx, ", \"array\": ",
                            arrayId, ", \"row\": ", row));
  };

  for (size_t idx = 0; idx < program.instructions.size(); ++idx) {
    const Instruction& inst = program.instructions[idx];
    ArrayState& arr = arrayAt(inst.arrayId);

    now += cost.dispatchLatencyNs();
    result.dispatchNs += cost.dispatchLatencyNs();
    result.energyPj += cost.dispatchEnergyPj();
    result.dispatchPj += cost.dispatchEnergyPj();
    result.instructionCount++;

    switch (inst.kind) {
      case InstKind::Read: {
        // Stall until pending writes to the sensed cells complete
        // (read-around-write for everything else).
        double ready = now;
        long blockingWrite = -1;
        for (int r : inst.rows) {
          const ArrayState::Row* page = arr.rowAt(r);
          if (!page) continue;
          for (int col : inst.columns) {
            size_t c = static_cast<size_t>(col);
            if (page->writeReadyNs[c] > ready) {
              ready = page->writeReadyNs[c];
              blockingWrite = page->writeIndex[c];
            }
          }
        }
        if (ready > now && options.traceStalls)
          result.stallEvents.push_back(
              {idx, ready - now,
               static_cast<long>(idx) - blockingWrite});
        result.stallNs += ready - now;
        now = ready;

        if (inst.rows.empty()) {
          now += kBufferOpLatencyNs;
          result.bufferOpNs += kBufferOpLatencyNs;
          double pj = 0.005 * target.geometry.dataWidthBits *
                      static_cast<double>(inst.columns.size());
          result.energyPj += pj;
          result.bufferOpPj += pj;
        } else {
          now += readNs;
          (inst.colOps.empty() ? result.plainReadNs : result.cimSenseNs) +=
              readNs;
          double pj = cost.readEnergyPj(static_cast<int>(inst.rows.size()),
                                        static_cast<int>(inst.columns.size()));
          result.energyPj += pj;
          (inst.colOps.empty() ? result.plainReadPj : result.cimSensePj) += pj;
        }

        // Functional: compute all columns against the pre-read buffer,
        // then commit.
        const size_t nCols = inst.columns.size();
        newBits.assign(nCols * W, 0);
        // Weak cells sensed per column (fault map only) inflate P_DF.
        weakPerCol.assign(nCols, 0);
        plainStuck.assign(inst.colOps.empty() ? nCols : 0, 0);
        // Guarded execution: the controller re-senses the instruction in
        // lockstep until every guarded column's value and check read
        // agree, so latency/energy pay for the deepest column's senses.
        int maxSenses = 1;
        int degradedCols = 0;
        rowFaults.clear();
        if (fmap)
          for (int r : inst.rows)
            rowFaults.push_back(fmap->rowWords(inst.arrayId, r));
        for (size_t i = 0; i < nCols; ++i) {
          int c = inst.columns[i];
          opPtrs.clear();
          opStuck.clear();
          for (size_t ri = 0; ri < inst.rows.size(); ++ri) {
            int r = inst.rows[ri];
            if (fmap && rowFaults[ri].isStuck(c)) {
              // Persistent fault: the sensed bit is physically pinned
              // regardless of what (if anything) was programmed.
              opPtrs.push_back(rowFaults[ri].stuckReadsOne(c)
                                   ? onesW.data()
                                   : zerosW.data());
              opStuck.push_back(1);
              result.stuckCellReads++;
              continue;
            }
            const ArrayState::Row* page = arr.rowAt(r);
            if (!page || !page->isWritten(c))
              throw SimulationError(
                  strCat("instruction ", idx, ": read of unwritten cell (",
                         inst.arrayId, ",", r, ",", c, ")"));
            opPtrs.push_back(arr.cellWords(*page, c));
            opStuck.push_back(0);
            if (fmap && rowFaults[ri].isWeak(c)) ++weakPerCol[i];
          }
          uint64_t* out = newBits.data() + i * W;
          if (inst.colOps.empty()) {
            // Plain read: load the single cell into the buffer.
            checkArg(opPtrs.size() == 1, "plain read takes one row");
            std::copy_n(opPtrs[0], W, out);
            plainStuck[i] = opStuck[0];
          } else {
            if (inst.chainsBuffer[i]) {
              if (!arr.bufferIsValid(c))
                throw SimulationError(
                    strCat("instruction ", idx,
                           ": chained read of invalid buffer column ", c,
                           " of array ", inst.arrayId));
              opPtrs.push_back(arr.bufferWords(c));
            }
            ir::evalOpWide(inst.colOps[i], opPtrs.data(), opPtrs.size(), W,
                           truth.data());
            // Reliability accounting: r activated rows per column op.
            int activated = static_cast<int>(inst.rows.size());
            double pdf = 0.0;
            if (activated >= 2)
              pdf = pdfOf(device::senseKindOf(inst.colOps[i]), activated);
            else if (activated == 1)
              pdf = pdfOf(device::SenseKind::PlainRead, 1);
            double effPdf = inflatePdf(pdf, weakPerCol[i]);
            // P_app stays the analytic per-sense failure model (weak
            // inflation included, guarding excluded): it is the unguarded
            // reference guarded runs are compared against.
            failures.add(effPdf);
            result.cimColumnOps++;
            // Degrade: replace the scouting sense by single-row plain
            // reads (MRA 1, the widest sense margin) combined digitally
            // in the row-buffer logic — slower but near-failure-free.
            // Operands sensed from stuck cells are exempt from injection:
            // their read-out is physically pinned, so no sense margin —
            // however degraded — can flip it.
            auto degradeSense = [&](uint64_t* dst) {
              result.degradedOps++;
              ++degradedCols;
              if (tracer.enabled())
                tracer.instant("sim", "degrade",
                               strCat("\"instruction\": ", idx,
                                      ", \"column\": ", c));
              double pPlain = pdfOf(device::SenseKind::PlainRead, 1);
              size_t nOps = inst.rows.size();
              splitWords.resize(nOps * W);
              splitPtrs.clear();
              for (size_t oi = 0; oi < nOps; ++oi) {
                uint64_t* s = splitWords.data() + oi * W;
                std::copy_n(opPtrs[oi], W, s);
                if (!opStuck[oi]) {
                  double pr = (fmap && rowFaults[oi].isWeak(c))
                                  ? inflatePdf(pPlain, 1)
                                  : pPlain;
                  inject(s, pr);
                }
                splitPtrs.push_back(s);
              }
              if (inst.chainsBuffer[i])
                splitPtrs.push_back(opPtrs.back());  // digital, fault-free
              ir::evalOpWide(inst.colOps[i], splitPtrs.data(),
                             splitPtrs.size(), W, dst);
            };
            if (options.guardedExecution &&
                effPdf > options.degradePdfThreshold) {
              // Too risky to sense at full MRA at all: a check-read pair
              // misses failures where both samples flip the same lane
              // (~P_DF^2 per lane), which stops being negligible here.
              result.guardedOps++;
              degradeSense(out);
            } else {
              std::copy_n(truth.data(), W, out);
              inject(out, effPdf);
              if (options.guardedExecution &&
                  effPdf > kGuardPdfThreshold) {
                // Guard: duplicate the scouting op as a check read; retry
                // while the two samples disagree, up to the budget.
                // Budget exhausted on persistent disagreement: fall back
                // to the degraded sense as well.
                maxSenses = std::max(
                    maxSenses, guardedSample(idx, truth.data(), effPdf, out));
                if (!std::equal(out, out + W, check.data()))
                  degradeSense(out);
              }
            }
          }
        }
        if (inst.colOps.empty()) {
          double pdf = pdfOf(device::SenseKind::PlainRead, 1);
          for (size_t i = 0; i < nCols; ++i) {
            double effPdf = inflatePdf(pdf, weakPerCol[i]);
            failures.add(effPdf);
            // A stuck cell senses its pinned state regardless of margin:
            // nothing to inject and nothing to guard.
            if (plainStuck[i]) continue;
            uint64_t* value = newBits.data() + i * W;
            std::copy_n(value, W, truth.data());
            inject(value, effPdf);
            if (options.guardedExecution &&
                effPdf > kGuardPdfThreshold) {
              // Plain reads above the threshold get the same check-read
              // guard as scouting ops. There is no lower sensing mode to
              // degrade to (MRA is already 1), so after an exhausted
              // budget the last sample stands (residual ~P_DF^2).
              maxSenses = std::max(
                  maxSenses, guardedSample(idx, truth.data(), effPdf, value));
            }
          }
        }
        // Guarded-execution timing: extra lockstep senses re-activate the
        // full row set; a degraded instruction additionally replays each
        // activated row as a single-row read and combines in the buffer.
        if (maxSenses > 1) {
          double extra = maxSenses - 1;
          now += extra * readNs;
          result.guardedResenseNs += extra * readNs;
          double pj = extra * cost.readEnergyPj(
                                  static_cast<int>(inst.rows.size()),
                                  static_cast<int>(inst.columns.size()));
          result.energyPj += pj;
          result.guardedResensePj += pj;
        }
        if (degradedCols > 0) {
          double replayNs =
              static_cast<double>(inst.rows.size()) * readNs +
              kBufferOpLatencyNs;
          now += replayNs;
          result.degradeNs += replayNs;
          double pj = static_cast<double>(inst.rows.size()) *
                      cost.readEnergyPj(1, degradedCols);
          result.energyPj += pj;
          result.degradePj += pj;
        }
        for (size_t i = 0; i < nCols; ++i) {
          int c = inst.columns[i];
          std::copy_n(newBits.data() + i * W, W, arr.bufferWords(c));
          arr.markBufferValid(c);
        }
        break;
      }

      case InstKind::Write: {
        int row = inst.rows[0];
        wearRow(idx, inst.arrayId, row);
        // A stuck cell keeps its pinned value whatever is programmed into
        // it. Every sense of a stuck cell (CIM read, transfer source,
        // output check) takes the pinned bit from the fault map, so the
        // words stored here are never read.
        while (hostNext != hostEnd && hostNext->first < idx) ++hostNext;
        const std::vector<NodeId>* host =
            hostNext != hostEnd && hostNext->first == idx ? &hostNext->second
                                                          : nullptr;
        ArrayState::Row& page = arr.writableRow(row);
        for (size_t i = 0; i < inst.columns.size(); ++i) {
          int c = inst.columns[i];
          uint64_t* dst = arr.cellWords(page, c);
          if (host) {
            std::copy_n(leafWords((*host)[i]), W, dst);
          } else {
            if (!arr.bufferIsValid(c))
              throw SimulationError(
                  strCat("instruction ", idx,
                         ": write from invalid buffer column ", c,
                         " of array ", inst.arrayId));
            std::copy_n(arr.bufferWords(c), W, dst);
          }
          page.markWritten(c);
        }
        // Posted write: issue cost now, programming completes later.
        for (int col : inst.columns) {
          page.writeReadyNs[static_cast<size_t>(col)] = now + writeDoneNs;
          page.writeIndex[static_cast<size_t>(col)] = static_cast<long>(idx);
        }
        now += writeIssueNs;
        result.writeIssueNs += writeIssueNs;
        double pj = cost.writeEnergyPj(static_cast<int>(inst.columns.size()));
        result.energyPj += pj;
        (host ? result.hostWritePj : result.spillWritePj) += pj;
        break;
      }

      case InstKind::Shift: {
        int d = inst.shiftDistance % cols;
        if (inst.shiftDirection == isa::ShiftDirection::Right)
          d = (cols - d) % cols;
        arr.rotate(d);  // bits at column c move to (c + d) % cols
        now += cost.shiftLatencyNs(inst.shiftDistance);
        result.shiftNs += cost.shiftLatencyNs(inst.shiftDistance);
        result.energyPj += cost.shiftEnergyPj(inst.shiftDistance);
        result.shiftPj += cost.shiftEnergyPj(inst.shiftDistance);
        break;
      }

      case InstKind::Xfer: {
        int srcCol = inst.columns[0];
        int srcRow = inst.rows[0];
        const ArrayState::Row* srcPage = arr.rowAt(srcRow);

        // RAW exposure: the transfer engine senses the source cell, so a
        // pending posted write to it must complete first.
        double ready = now;
        if (srcPage)
          ready = std::max(
              now, srcPage->writeReadyNs[static_cast<size_t>(srcCol)]);
        if (ready > now && options.traceStalls)
          result.stallEvents.push_back(
              {idx, ready - now,
               static_cast<long>(idx) -
                   srcPage->writeIndex[static_cast<size_t>(srcCol)]});
        result.stallNs += ready - now;
        now = ready;

        // Source sense: a single-row plain read by the transfer engine.
        bool srcStuck = fmap && fmap->isStuck(inst.arrayId, srcRow, srcCol);
        if (srcStuck) {
          const uint64_t* pinned =
              fmap->stuckBit(inst.arrayId, srcRow, srcCol) ? onesW.data()
                                                           : zerosW.data();
          std::copy_n(pinned, W, truth.data());
          result.stuckCellReads++;
        } else {
          if (!srcPage || !srcPage->isWritten(srcCol))
            throw SimulationError(
                strCat("instruction ", idx, ": transfer of unwritten cell (",
                       inst.arrayId, ",", srcRow, ",", srcCol, ")"));
          std::copy_n(arr.cellWords(*srcPage, srcCol), W, truth.data());
        }
        newBits.assign(W, 0);
        uint64_t* value = newBits.data();
        std::copy_n(truth.data(), W, value);
        double pdf = pdfOf(device::SenseKind::PlainRead, 1);
        double effPdf = inflatePdf(
            pdf, (fmap && fmap->isWeak(inst.arrayId, srcRow, srcCol)) ? 1 : 0);
        failures.add(effPdf);
        int senses = 1;
        if (!srcStuck) {
          inject(value, effPdf);
          // Same check-read guard as a plain read.
          if (options.guardedExecution && effPdf > kGuardPdfThreshold)
            senses = guardedSample(idx, truth.data(), effPdf, value);
        }
        now += senses * readNs;
        result.xferSenseNs += readNs;
        result.guardedResenseNs += (senses - 1) * readNs;
        double sensePj = senses * cost.readEnergyPj(1, 1);
        result.energyPj += sensePj;
        result.xferPj += sensePj;

        // Bus leg: the engine queues for the bus and carries the bit.
        // The issuing controller does NOT wait — compute overlaps with
        // the movement; only a later consumer of the destination cell
        // (or a later transfer) can stall on it. A same-array leg is
        // free but still queues.
        const bool crosses = inst.arrayId != inst.dstArray;
        const double legNs = crosses ? cost.busLatencyNs() : 0.0;
        const double busStart = std::max(now, busFreeNs);
        busFreeNs = busStart + legNs;
        result.busWaitNs += busStart - now;
        result.busBusyNs += legNs;
        if (crosses) {
          result.energyPj += cost.busEnergyPj();
          result.xferPj += cost.busEnergyPj();
        }
        const double busEnd = busFreeNs;

        // Destination write: posted, completing after the bus delivers.
        ArrayState& dst = arrayAt(inst.dstArray);
        wearRow(idx, inst.dstArray, inst.dstRow);
        ArrayState::Row& dstPage = dst.writableRow(inst.dstRow);
        uint64_t* dstWords = dst.cellWords(dstPage, inst.dstCol);
        std::copy_n(value, W, dstWords);  // a stuck cell ignores it (Write)
        dstPage.markWritten(inst.dstCol);
        dstPage.writeReadyNs[static_cast<size_t>(inst.dstCol)] =
            busEnd + writeDoneNs;
        dstPage.writeIndex[static_cast<size_t>(inst.dstCol)] =
            static_cast<long>(idx);
        result.energyPj += cost.writeEnergyPj(1);
        result.xferPj += cost.writeEnergyPj(1);
        break;
      }
    }

    // Periodic time series (every 256 instructions) so long runs plot
    // latency/energy progression without per-instruction event volume.
    if (tracer.enabled() && (idx & 255) == 0) {
      tracer.counter("sim", "sim_latency_ns", now);
      tracer.counter("sim", "sim_energy_pj", result.energyPj);
    }
  }


  result.latencyNs = now;
  result.pApp = failures.probability();

  if (options.verify) {
    std::map<std::string, std::vector<uint64_t>> inputWords;
    for (NodeId i = g.firstId(); i < g.endId(); ++i) {
      const ir::Node& n = g.node(i);
      if (n.isInput()) {
        const uint64_t* v = leafWords(i);
        inputWords[n.name].assign(v, v + W);
      }
    }
    auto reference =
        ir::evaluateAllWordsPacked(g, inputWords, static_cast<int>(W));
    for (NodeId out : g.outputs()) {
      auto it = program.outputCells.find(out);
      if (it == program.outputCells.end())
        throw SimulationError(
            strCat("output ", out, " has no recorded cell"));
      const mapping::CellAddress& cell = it->second;
      const ArrayState& arr2 = arrayAt(cell.arrayId);
      const ArrayState::Row* page = arr2.rowAt(cell.row);
      bool written = page && page->isWritten(cell.col);
      const uint64_t* actual =
          written ? arr2.cellWords(*page, cell.col) : nullptr;
      if (fmap && fmap->isStuck(cell.arrayId, cell.row, cell.col)) {
        // A stuck output cell holds its pinned value no matter what the
        // program did (including wear-out mid-run).
        actual = fmap->stuckBit(cell.arrayId, cell.row, cell.col)
                     ? onesW.data()
                     : zerosW.data();
        written = true;
      }
      if (!written)
        throw SimulationError(
            strCat("output ", out, " cell (array ", cell.arrayId, ", row ",
                   cell.row, ", col ", cell.col, ") never written"));
      const uint64_t* ref = reference.data() + static_cast<size_t>(out) * W;
      for (size_t w = 0; w < W; ++w) {
        uint64_t diff = actual[w] ^ ref[w];
        if (diff == 0) continue;
        if (options.injectFaults || fmap) {
          // Injected decision failures and persistent faults legitimately
          // corrupt lanes; record them instead of failing verification.
          result.corruptedLaneWords[w] |= diff;
        } else {
          throw SimulationError(strCat(
              "output ", out, " mismatch at cell (array ", cell.arrayId,
              ", row ", cell.row, ", col ", cell.col, "), lane word ", w,
              ", written by instruction ",
              page->writeIndex[static_cast<size_t>(cell.col)],
              ": array holds ", actual[w], " but reference is ", ref[w]));
        }
      }
    }
    // The actual comparison outcome: clean injection/fault runs report
    // verified=true instead of being pessimistically marked false.
    result.verified = result.corruptedLanes() == 0;
  }

  return result;
}

}  // namespace sherlock::sim
