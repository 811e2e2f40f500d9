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

/// Functional state of one array: cells + row buffer, W packed 64-bit
/// lane words per cell position (64 * W bulk slices simulated at once).
/// Everything lives in flat contiguous uint64_t arrays — including the
/// written/valid bookkeeping, which previously sat in std::vector<bool>
/// bitmaps whose proxy references defeat autovectorization of the copy
/// and combine loops. Cell state is paged by row: a row's page is
/// allocated on the row's first write, so a program that writes a few
/// rows of a large array pays for those rows only. A row without a page
/// holds no written cell and no pending write.
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
  uint64_t* bufferWords(int col) {
    return buffer.data() + static_cast<size_t>(col) * W_;
  }
  bool bufferIsValid(int col) const {
    return (bufferValid[static_cast<size_t>(col) >> 6] >> (col & 63)) & 1;
  }

  int cols_;
  size_t W_;
  std::vector<std::unique_ptr<Row>> rowPages;  ///< one slot per row
  std::vector<uint64_t> buffer;       ///< cols * W lane words
  std::vector<uint64_t> bufferValid;  ///< packed bitmap over columns
};

/// Precomputed packed fault masks of one array: one bit per column,
/// `colWords` words per row. The read loop tests a bit here instead of
/// calling back into the fault map (cell-index math plus a fault-byte
/// switch) for every (row, column) pair it senses.
struct FaultMasks {
  FaultMasks(const device::FaultMap& map, int arrayId, int rows, int cols)
      : colWords_((static_cast<size_t>(cols) + 63) / 64),
        stuck(static_cast<size_t>(rows) * colWords_, 0),
        stuckHrs(static_cast<size_t>(rows) * colWords_, 0),
        weak(static_cast<size_t>(rows) * colWords_, 0) {
    for (int r = 0; r < rows; ++r) refreshRow(map, arrayId, r);
  }

  /// Re-derives one row's masks from the map (endurance wear-out converts
  /// rows to stuck mid-run).
  void refreshRow(const device::FaultMap& map, int arrayId, int row) {
    size_t off = static_cast<size_t>(row) * colWords_;
    map.packRowMasks(arrayId, row, &stuck[off], &stuckHrs[off], &weak[off]);
  }

  bool isStuck(int row, int col) const { return test(stuck, row, col); }
  bool stuckReadsOne(int row, int col) const {
    return test(stuckHrs, row, col);
  }
  bool isWeak(int row, int col) const { return test(weak, row, col); }

 private:
  bool test(const std::vector<uint64_t>& v, int row, int col) const {
    return (v[static_cast<size_t>(row) * colWords_ + (col >> 6)] >>
            (col & 63)) &
           1;
  }

  size_t colWords_;
  std::vector<uint64_t> stuck;
  std::vector<uint64_t> stuckHrs;
  std::vector<uint64_t> weak;
};

}  // namespace

long SimResult::corruptedLanes() const {
  long n = 0;
  for (uint64_t w : corruptedLaneWords) n += std::popcount(w);
  return n;
}

const char* opClassName(int opClass) {
  switch (opClass) {
    case SimResult::OpCimRead: return "cim_read";
    case SimResult::OpPlainRead: return "plain_read";
    case SimResult::OpWrite: return "write";
    case SimResult::OpShift: return "shift";
    case SimResult::OpMove: return "move";
    case SimResult::OpXfer: return "xfer";
    default: return "unknown";
  }
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
  // Packed per-row fault masks, precomputed per touched array so the read
  // loop tests bits instead of re-querying the map per sensed cell.
  std::vector<std::unique_ptr<FaultMasks>> faultMasks(
      static_cast<size_t>(target.numArrays));
  auto masksAt = [&](int a) -> FaultMasks& {
    auto& slot = faultMasks[static_cast<size_t>(a)];
    if (!slot) slot = std::make_unique<FaultMasks>(*fmap, a, rows, cols);
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
  std::map<std::pair<device::SenseKind, int>, double> pdfCache;
  auto pdfOf = [&](device::SenseKind kind, int r) {
    auto key = std::make_pair(kind, r);
    auto it = pdfCache.find(key);
    if (it == pdfCache.end())
      it = pdfCache
               .emplace(key,
                        device::decisionFailureProbability(target.tech, kind,
                                                           r))
               .first;
    return it->second;
  };

  double now = 0.0;
  // Interconnect occupancy. A move occupies the fabric synchronously; an
  // xfer hands the sensed bit to the transfer engine and the fabric leg
  // plus destination write complete in the background, so compute on the
  // issuing array overlaps with the movement.
  //
  // Without a configured grid every transfer serializes through one flat
  // bus (busFreeNs). A configured mesh instead has one directed link per
  // neighbor pair; transfers follow XY routes and claim each link for one
  // hop slot, so traffic on disjoint links proceeds in parallel and only
  // genuinely shared links queue.
  double busFreeNs = 0.0;
  std::vector<double> linkFreeNs;
  // Per-directed-link occupancy rollup (SimResult::linkStats), kept in
  // flat arrays parallel to linkFreeNs so claim() stays branch-free.
  std::vector<double> linkBusyNs;
  std::vector<long> linkTransfers;
  if (target.grid.configured()) {
    linkFreeNs.assign(static_cast<size_t>(target.grid.cells()) * 4, 0.0);
    linkBusyNs.assign(linkFreeNs.size(), 0.0);
    linkTransfers.assign(linkFreeNs.size(), 0);
  }
  // Per-hop transfer cost; the GridConfig defaults reproduce the
  // pre-grid flat bus (10 ns / 0.5 pJ-per-bit, one hop per transfer).
  const double hopLatencyNs = target.grid.hopLatencyNs;
  const double hopEnergyPj =
      target.grid.hopEnergyPerBitPj * target.geometry.dataWidthBits;
  // Routes one buffered bit from srcArray to dstArray, first requested at
  // readyNs. Returns {injectionNs, arrivalNs} and charges busWait/busBusy.
  auto routeBit = [&](int srcArray, int dstArray,
                      double readyNs) -> std::pair<double, double> {
    const int meshCells = target.grid.cells();
    if (!target.grid.configured() || srcArray >= meshCells ||
        dstArray >= meshCells || srcArray < 0 || dstArray < 0) {
      int hops = target.hopsBetween(srcArray, dstArray);
      double start = std::max(readyNs, busFreeNs);
      double end = start + hops * hopLatencyNs;
      busFreeNs = end;
      result.busWaitNs += start - readyNs;
      result.busBusyNs += hops * hopLatencyNs;
      return {start, end};
    }
    if (srcArray == dstArray) return {readyNs, readyNs};
    // XY route: column direction first, then row direction. Directed
    // links are keyed (array, direction); the bit holds each link for
    // one hop slot as it cuts through.
    const int C = target.grid.cols;
    int r = srcArray / C, c = srcArray % C;
    const int r2 = dstArray / C, c2 = dstArray % C;
    double t = readyNs, start = -1.0;
    auto claim = [&](int dir) {
      size_t link = (static_cast<size_t>(r) * C + c) * 4 + dir;
      double s = std::max(t, linkFreeNs[link]);
      if (start < 0.0) start = s;
      result.busWaitNs += s - t;
      t = s + hopLatencyNs;
      linkFreeNs[link] = t;
      result.busBusyNs += hopLatencyNs;
      linkBusyNs[link] += hopLatencyNs;
      linkTransfers[link]++;
    };
    while (c != c2) {
      claim(c2 > c ? 0 : 1);
      c += c2 > c ? 1 : -1;
    }
    while (r != r2) {
      claim(r2 > r ? 2 : 3);
      r += r2 > r ? 1 : -1;
    }
    return {start, t};
  };
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
  std::vector<uint64_t> shiftBuf, shiftValid; // rotate scratch
  std::vector<int> weakPerCol;
  std::vector<uint8_t> plainStuck;            // plain read of a stuck cell
  std::vector<const uint64_t*> opPtrs, splitPtrs;
  std::vector<uint8_t> opStuck;
  const std::vector<uint64_t> onesW(W, ~uint64_t{0});
  const std::vector<uint64_t> zerosW(W, 0);

  trace::Tracer& tracer = trace::Tracer::instance();
  for (size_t idx = 0; idx < program.instructions.size(); ++idx) {
    const Instruction& inst = program.instructions[idx];
    isa::validateInstruction(inst, target.numArrays, rows, cols);
    ArrayState& arr = arrayAt(inst.arrayId);
    const FaultMasks* fm = fmap ? &masksAt(inst.arrayId) : nullptr;

    // Per-opcode-class attribution: everything this instruction adds to
    // `now` (dispatch, stalls, execution) and to the energy total is
    // charged to its class rollup after the switch.
    const double instStartNs = now;
    const double instStartPj = result.energyPj;
    int opClass;
    switch (inst.kind) {
      case InstKind::Read:
        opClass = inst.colOps.empty() ? SimResult::OpPlainRead
                                      : SimResult::OpCimRead;
        break;
      case InstKind::Write: opClass = SimResult::OpWrite; break;
      case InstKind::Shift: opClass = SimResult::OpShift; break;
      case InstKind::Move: opClass = SimResult::OpMove; break;
      default: opClass = SimResult::OpXfer; break;
    }

    now += cost.dispatchLatencyNs();
    result.energyPj += cost.dispatchEnergyPj();
    result.instructionCount++;

    switch (inst.kind) {
      case InstKind::Read: {
        result.readCount++;
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
          result.energyPj +=
              0.005 * target.geometry.dataWidthBits *
              static_cast<double>(inst.columns.size());
        } else {
          now += cost.readLatencyNs();
          result.energyPj += cost.readEnergyPj(
              static_cast<int>(inst.rows.size()),
              static_cast<int>(inst.columns.size()));
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
        // One detect-and-retry loop shared by the scouting and plain-read
        // paths (previously duplicated, letting the bookkeeping drift):
        // `value` holds the first sampled read; value/check pairs are
        // re-sensed from `truth` until they agree or the retry budget is
        // exhausted, with the guard/retry counters and the instruction's
        // lockstep sense depth updated here. Returns false when the
        // budget ran out with the pair still disagreeing — the caller
        // picks the fallback (degrade for scouting ops; plain reads are
        // already at MRA 1, so their last sample stands).
        auto guardedSample = [&](const uint64_t* truthW, double effPdf,
                                 uint64_t* value) -> bool {
          result.guardedOps++;
          std::copy_n(truthW, W, check.data());
          inject(check.data(), effPdf);
          int senses = 2;
          int tries = 0;
          bool agree = std::equal(value, value + W, check.data());
          while (!agree && tries < options.retryBudget) {
            ++tries;
            result.retriedOps++;
            if (tracer.enabled())
              tracer.instant("sim", "guarded_retry",
                             strCat("\"instruction\": ", idx,
                                    ", \"try\": ", tries));
            std::copy_n(truthW, W, value);
            inject(value, effPdf);
            std::copy_n(truthW, W, check.data());
            inject(check.data(), effPdf);
            senses += 2;
            agree = std::equal(value, value + W, check.data());
          }
          maxSenses = std::max(maxSenses, senses);
          return agree;
        };
        for (size_t i = 0; i < nCols; ++i) {
          int c = inst.columns[i];
          opPtrs.clear();
          opStuck.clear();
          for (int r : inst.rows) {
            if (fm && fm->isStuck(r, c)) {
              // Persistent fault: the sensed bit is physically pinned
              // regardless of what (if anything) was programmed.
              opPtrs.push_back(fm->stuckReadsOne(r, c) ? onesW.data()
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
            if (fm && fm->isWeak(r, c)) ++weakPerCol[i];
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
                  int r = inst.rows[oi];
                  double pr = (fm && fm->isWeak(r, c))
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
                  effPdf > options.guardPdfThreshold) {
                // Guard: duplicate the scouting op as a check read; retry
                // while the two samples disagree, up to the budget.
                // Budget exhausted on persistent disagreement: fall back
                // to the degraded sense as well.
                if (!guardedSample(truth.data(), effPdf, out))
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
                effPdf > options.guardPdfThreshold) {
              // Plain reads above the threshold get the same check-read
              // guard as scouting ops. There is no lower sensing mode to
              // degrade to (MRA is already 1), so after an exhausted
              // budget the last sample stands (residual ~P_DF^2).
              guardedSample(truth.data(), effPdf, value);
            }
          }
        }
        // Guarded-execution timing: extra lockstep senses re-activate the
        // full row set; a degraded instruction additionally replays each
        // activated row as a single-row read and combines in the buffer.
        if (maxSenses > 1) {
          double extra = maxSenses - 1;
          now += extra * cost.readLatencyNs();
          result.energyPj +=
              extra * cost.readEnergyPj(
                          static_cast<int>(inst.rows.size()),
                          static_cast<int>(inst.columns.size()));
        }
        if (degradedCols > 0) {
          now += static_cast<double>(inst.rows.size()) *
                     cost.readLatencyNs() +
                 kBufferOpLatencyNs;
          result.energyPj += static_cast<double>(inst.rows.size()) *
                             cost.readEnergyPj(1, degradedCols);
        }
        for (size_t i = 0; i < nCols; ++i) {
          int c = inst.columns[i];
          std::copy_n(newBits.data() + i * W, W, arr.bufferWords(c));
          arr.bufferValid[static_cast<size_t>(c) >> 6] |=
              uint64_t{1} << (c & 63);
        }
        break;
      }

      case InstKind::Write: {
        result.writeCount++;
        int row = inst.rows[0];
        if (mutableMap) {
          // Endurance: one programming pulse on the row; crossing the
          // budget converts its cells to stuck-at-LRS inside noteRowWrite,
          // so later reads of the row return the pinned state. The
          // precomputed masks for the row are refreshed at the moment of
          // conversion.
          long count = mutableMap->noteRowWrite(inst.arrayId, row);
          if (count == mutableMap->options().rowWriteBudget + 1) {
            result.wornRows++;
            if (tracer.enabled())
              tracer.instant("sim", "wear_out",
                             strCat("\"instruction\": ", idx,
                                    ", \"array\": ", inst.arrayId,
                                    ", \"row\": ", row));
            auto& slot = faultMasks[static_cast<size_t>(inst.arrayId)];
            if (slot) slot->refreshRow(*fmap, inst.arrayId, row);
          }
        }
        const FaultMasks* wfm = fmap ? &masksAt(inst.arrayId) : nullptr;
        auto hostIt = program.hostWriteValues.find(idx);
        ArrayState::Row& page = arr.writableRow(row);
        for (size_t i = 0; i < inst.columns.size(); ++i) {
          int c = inst.columns[i];
          uint64_t* dst = arr.cellWords(page, c);
          if (hostIt != program.hostWriteValues.end()) {
            std::copy_n(leafWords(hostIt->second[i]), W, dst);
          } else {
            if (!arr.bufferIsValid(c))
              throw SimulationError(
                  strCat("instruction ", idx,
                         ": write from invalid buffer column ", c,
                         " of array ", inst.arrayId));
            std::copy_n(arr.bufferWords(c), W, dst);
          }
          if (wfm && wfm->isStuck(row, c)) {
            // Programming a stuck cell has no effect: it keeps its pinned
            // value (reads force it; mark written so they do not throw).
            const uint64_t* pinned =
                wfm->stuckReadsOne(row, c) ? onesW.data() : zerosW.data();
            std::copy_n(pinned, W, dst);
          }
          page.markWritten(c);
        }
        // Posted write: issue cost now, programming completes later.
        for (int col : inst.columns) {
          page.writeReadyNs[static_cast<size_t>(col)] =
              now + cost.writeCompletionNs();
          page.writeIndex[static_cast<size_t>(col)] = static_cast<long>(idx);
        }
        now += cost.writeIssueLatencyNs();
        result.energyPj +=
            cost.writeEnergyPj(static_cast<int>(inst.columns.size()));
        break;
      }

      case InstKind::Shift: {
        result.shiftCount++;
        int d = inst.shiftDistance % cols;
        if (inst.shiftDirection == isa::ShiftDirection::Right)
          d = (cols - d) % cols;
        // Rotate left by d: bits at column c move to (c + d) % cols. The
        // lane words rotate as two block copies; the valid bits move one
        // set bit at a time.
        const auto split =
            static_cast<std::ptrdiff_t>(static_cast<size_t>(cols - d) * W);
        shiftBuf.resize(arr.buffer.size());
        std::rotate_copy(arr.buffer.begin(), arr.buffer.begin() + split,
                         arr.buffer.end(), shiftBuf.begin());
        shiftValid.assign(arr.bufferValid.size(), 0);
        for (size_t w = 0; w < arr.bufferValid.size(); ++w)
          for (uint64_t valid = arr.bufferValid[w]; valid;
               valid &= valid - 1) {
            int c = static_cast<int>(w * 64) + std::countr_zero(valid);
            int dst = c < cols - d ? c + d : c + d - cols;
            shiftValid[static_cast<size_t>(dst) >> 6] |=
                uint64_t{1} << (dst & 63);
          }
        arr.buffer.swap(shiftBuf);
        arr.bufferValid.swap(shiftValid);
        now += cost.shiftLatencyNs(inst.shiftDistance);
        result.energyPj += cost.shiftEnergyPj(inst.shiftDistance);
        break;
      }

      case InstKind::Move: {
        result.moveCount++;
        ArrayState& dst = arrayAt(inst.dstArray);
        int srcCol = inst.columns[0];
        if (!arr.bufferIsValid(srcCol))
          throw SimulationError(strCat("instruction ", idx,
                                       ": move from invalid buffer column ",
                                       srcCol, " of array ", inst.arrayId));
        std::copy_n(arr.bufferWords(srcCol), W, dst.bufferWords(inst.dstCol));
        dst.bufferValid[static_cast<size_t>(inst.dstCol) >> 6] |=
            uint64_t{1} << (inst.dstCol & 63);
        // A move is synchronous (the destination buffer bit is consumed
        // by the very next instructions), so the issuing controller
        // queues behind any in-flight transfer on the links it needs.
        int hops = target.hopsBetween(inst.arrayId, inst.dstArray);
        now = routeBit(inst.arrayId, inst.dstArray, now).second;
        result.energyPj += hops * hopEnergyPj;
        break;
      }

      case InstKind::Xfer: {
        result.xferCount++;
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
        bool srcStuck = fm && fm->isStuck(srcRow, srcCol);
        if (srcStuck) {
          const uint64_t* pinned = fm->stuckReadsOne(srcRow, srcCol)
                                       ? onesW.data()
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
        double effPdf =
            inflatePdf(pdf, (fm && fm->isWeak(srcRow, srcCol)) ? 1 : 0);
        failures.add(effPdf);
        int senses = 1;
        if (!srcStuck) {
          inject(value, effPdf);
          if (options.guardedExecution && effPdf > options.guardPdfThreshold) {
            // Same check-read guard as a plain read: re-sense until the
            // value/check pair agrees or the budget runs out (MRA is
            // already 1, so the last sample stands after exhaustion).
            result.guardedOps++;
            std::copy_n(truth.data(), W, check.data());
            inject(check.data(), effPdf);
            senses = 2;
            int tries = 0;
            while (!std::equal(value, value + W, check.data()) &&
                   tries < options.retryBudget) {
              ++tries;
              result.retriedOps++;
              if (tracer.enabled())
                tracer.instant("sim", "guarded_retry",
                               strCat("\"instruction\": ", idx,
                                      ", \"try\": ", tries));
              std::copy_n(truth.data(), W, value);
              inject(value, effPdf);
              std::copy_n(truth.data(), W, check.data());
              inject(check.data(), effPdf);
              senses += 2;
            }
          }
        }
        now += senses * cost.readLatencyNs();
        result.energyPj += senses * cost.readEnergyPj(1, 1);

        // Fabric leg: the engine queues for the links on its XY route and
        // carries the bit hop by hop. The issuing controller does NOT
        // wait — compute overlaps with the movement; only a later
        // consumer of the destination cell (or a transfer sharing a
        // link) can stall on it.
        int hops = target.hopsBetween(inst.arrayId, inst.dstArray);
        double busEnd = routeBit(inst.arrayId, inst.dstArray, now).second;
        result.energyPj += hops * hopEnergyPj;

        // Destination write: posted, completing after the bus delivers.
        ArrayState& dst = arrayAt(inst.dstArray);
        if (mutableMap) {
          long count = mutableMap->noteRowWrite(inst.dstArray, inst.dstRow);
          if (count == mutableMap->options().rowWriteBudget + 1) {
            result.wornRows++;
            if (tracer.enabled())
              tracer.instant("sim", "wear_out",
                             strCat("\"instruction\": ", idx,
                                    ", \"array\": ", inst.dstArray,
                                    ", \"row\": ", inst.dstRow));
            auto& slot = faultMasks[static_cast<size_t>(inst.dstArray)];
            if (slot) slot->refreshRow(*fmap, inst.dstArray, inst.dstRow);
          }
        }
        ArrayState::Row& dstPage = dst.writableRow(inst.dstRow);
        uint64_t* dstWords = dst.cellWords(dstPage, inst.dstCol);
        std::copy_n(value, W, dstWords);
        if (fmap) {
          const FaultMasks& dfm = masksAt(inst.dstArray);
          if (dfm.isStuck(inst.dstRow, inst.dstCol)) {
            const uint64_t* pinned = dfm.stuckReadsOne(inst.dstRow,
                                                       inst.dstCol)
                                         ? onesW.data()
                                         : zerosW.data();
            std::copy_n(pinned, W, dstWords);
          }
        }
        dstPage.markWritten(inst.dstCol);
        dstPage.writeReadyNs[static_cast<size_t>(inst.dstCol)] =
            busEnd + cost.writeCompletionNs();
        dstPage.writeIndex[static_cast<size_t>(inst.dstCol)] =
            static_cast<long>(idx);
        result.energyPj += cost.writeEnergyPj(1);
        break;
      }
    }

    SimResult::OpcodeRollup& roll =
        result.opcodeRollups[static_cast<size_t>(opClass)];
    roll.count++;
    roll.latencyNs += now - instStartNs;
    roll.energyPj += result.energyPj - instStartPj;

    // Periodic time series (every 256 instructions) so long runs plot
    // latency/energy progression without per-instruction event volume.
    if (tracer.enabled() && (idx & 255) == 0) {
      tracer.counter("sim", "sim_latency_ns", now);
      tracer.counter("sim", "sim_energy_pj", result.energyPj);
    }
  }

  if (!linkTransfers.empty()) {
    const int C = target.grid.cols;
    for (size_t link = 0; link < linkTransfers.size(); ++link) {
      if (linkTransfers[link] == 0) continue;
      const int cell = static_cast<int>(link / 4);
      const int dir = static_cast<int>(link % 4);
      int r2 = cell / C, c2 = cell % C;
      // Link direction encoding mirrors routeBit's claim(): 0 = +col,
      // 1 = -col, 2 = +row, 3 = -row.
      if (dir == 0) ++c2;
      else if (dir == 1) --c2;
      else if (dir == 2) ++r2;
      else --r2;
      result.linkStats.push_back(
          {cell, r2 * C + c2, linkBusyNs[link], linkTransfers[link]});
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
