// Unit and property tests for the persistent cell-fault model: seeded
// generation is deterministic and byte-reproducible (pinned by digests
// and by a per-cell reference draw), every query agrees with a plain
// byte-per-cell model, the text form prints a pinned layout, endurance
// wear converts rows to stuck faults, and — the placement contract —
// compiled programs never read or write a faulty cell on either mapper.
#include <gtest/gtest.h>

#include <cstdio>

#include "dag_fuzz.h"
#include "device/faultmap.h"
#include "mapping/compiler.h"
#include "serve/persist.h"
#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "transforms/passes.h"
#include "workloads/random_dag.h"

namespace sherlock::device {
namespace {

FaultMapOptions denseOptions() {
  FaultMapOptions o;
  o.seed = 42;
  o.stuckDensity = 0.05;
  o.weakDensity = 0.03;
  return o;
}

TEST(FaultMap, GenerationIsDeterministic) {
  FaultMap a = FaultMap::generate(4, 64, 64, denseOptions());
  FaultMap b = FaultMap::generate(4, 64, 64, denseOptions());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.toText(), b.toText());

  FaultMapOptions other = denseOptions();
  other.seed = 43;
  FaultMap c = FaultMap::generate(4, 64, 64, other);
  EXPECT_NE(a, c);
}

/// One generated map whose text digest is pinned.
struct GeneratedCase {
  const char* name;
  int arrays, rows, cols;
  uint64_t seed;
  double stuck, weak;
  uint64_t digest;  ///< FNV-1a of toText()
};

// Recorded from the byte-per-cell map before it was packed into planes:
// the faulty-guarded workload's map, a width that is not a multiple of
// 64 (the padding bits), one column, every cell stuck, weak cells only,
// stuck + weak = 1 and a density below the draw's resolution of 2^-53.
// GenerateMatchesPerCellDraw adds thresholds that sit exactly on a
// cell's draw.
const GeneratedCase kGeneratedCases[] = {
    {"16x512x512 1%/0.5%", 16, 512, 512, 1, 0.01, 0.005, 0xb75dea1afd1011eb},
    {"3x48x100 5%/3%", 3, 48, 100, 42, 0.05, 0.03, 0x29a38ae1190c5bdd},
    {"1x7x1", 1, 7, 1, 5, 0.3, 0.2, 0x48a51ff0bc400d14},
    {"all stuck", 2, 16, 70, 3, 1.0, 0.0, 0x0026d06d2358c14e},
    {"weak only", 2, 16, 70, 4, 0.0, 0.25, 0x0dde4795c99f7daf},
    {"stuck + weak = 1", 2, 16, 70, 6, 0.6, 0.4, 0xf5d49762b9e29e86},
    {"below 2^-53", 2, 64, 64, 7, 1e-17, 5e-18, 0x8b16e0dd0bdaff3b},
};

FaultMapOptions optionsOf(const GeneratedCase& gc) {
  FaultMapOptions o;
  o.seed = gc.seed;
  o.stuckDensity = gc.stuck;
  o.weakDensity = gc.weak;
  return o;
}

TEST(FaultMap, GeneratedMapsMatchRecordedDigests) {
  EXPECT_EQ(0.6 + 0.4, 1.0);  // the "stuck + weak = 1" case is exact
  for (const GeneratedCase& gc : kGeneratedCases) {
    SCOPED_TRACE(gc.name);
    FaultMap map =
        FaultMap::generate(gc.arrays, gc.rows, gc.cols, optionsOf(gc));
    uint64_t digest = serve::fnv1a(map.toText());
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, gc.digest) << "digest " << hex;
  }
}

/// The draw as first written: the 53 high bits of the cell's splitmix64
/// value as a double in [0, 1), compared against the densities.
CellFault referenceDraw(const FaultMapOptions& o, uint64_t cell) {
  double u = static_cast<double>(deriveSeed(o.seed, cell) >> 11) * 0x1.0p-53;
  if (u < o.stuckDensity * 0.5) return CellFault::StuckAtLrs;
  if (u < o.stuckDensity) return CellFault::StuckAtHrs;
  if (u < o.stuckDensity + o.weakDensity) return CellFault::Weak;
  return CellFault::None;
}

TEST(FaultMap, GenerateMatchesPerCellDraw) {
  std::vector<GeneratedCase> cases(std::begin(kGeneratedCases),
                                   std::end(kGeneratedCases));
  cases.push_back({"1x33x129 0.3/0.1", 1, 33, 129, 99, 0.3, 0.1, 0});
  cases.push_back({"2x9x64 denormal", 2, 9, 64, 8, 4e-320, 0.5, 0});
  // Thresholds exactly at the first cell's fraction u0 and a quarter
  // step of the draw above it, where a rounding slip (floor for ceil, <=
  // for <) would flip that cell. A draw below 2^51 keeps u0 + 2^-55
  // exact.
  uint64_t seed = 1;
  while ((deriveSeed(seed, 0) >> 11) >= (uint64_t{1} << 51)) ++seed;
  const double u0 =
      static_cast<double>(deriveSeed(seed, 0) >> 11) * 0x1.0p-53;
  for (double t : {u0, u0 + 0x1.0p-55}) {
    cases.push_back({"weak at u0", 1, 1, 3, seed, 0.0, t, 0});
    cases.push_back({"stuck at u0", 1, 1, 3, seed, t, 0.0, 0});
    cases.push_back({"stuck-lrs at u0", 1, 1, 3, seed, 2 * t, 0.0, 0});
  }
  FaultMapOptions atU0;
  atU0.seed = seed;
  atU0.weakDensity = u0;
  EXPECT_EQ(referenceDraw(atU0, 0), CellFault::None);
  atU0.weakDensity = u0 + 0x1.0p-55;
  EXPECT_EQ(referenceDraw(atU0, 0), CellFault::Weak);
  for (const GeneratedCase& gc : cases) {
    SCOPED_TRACE(gc.name);
    FaultMapOptions o = optionsOf(gc);
    FaultMap map = FaultMap::generate(gc.arrays, gc.rows, gc.cols, o);
    uint64_t cell = 0;
    for (int a = 0; a < gc.arrays; ++a)
      for (int r = 0; r < gc.rows; ++r)
        for (int c = 0; c < gc.cols; ++c, ++cell)
          ASSERT_EQ(map.faultAt(a, r, c), referenceDraw(o, cell))
              << "cell (" << a << ", " << r << ", " << c << ")";
  }
}

/// Byte-per-cell model of a fault map: what every query must agree with.
struct ReferenceMap {
  ReferenceMap(int arrays, int rows, int cols)
      : arrays(arrays), rows(rows), cols(cols),
        cells(static_cast<size_t>(arrays) * rows * cols, CellFault::None),
        writes(static_cast<size_t>(arrays) * rows, 0) {}

  CellFault& at(int a, int r, int c) {
    return cells[(static_cast<size_t>(a) * rows + r) * cols + c];
  }
  static bool stuck(CellFault f) {
    return f == CellFault::StuckAtLrs || f == CellFault::StuckAtHrs;
  }
  /// noteRowWrite's rule: the write past the budget ends every still
  /// functional cell of the row SET-stuck.
  void noteRowWrite(int a, int r, long budget) {
    long& count = writes[static_cast<size_t>(a) * rows + r];
    if (++count != budget + 1) return;
    for (int c = 0; c < cols; ++c)
      if (!stuck(at(a, r, c))) at(a, r, c) = CellFault::StuckAtLrs;
  }

  int arrays, rows, cols;
  std::vector<CellFault> cells;
  std::vector<long> writes;
};

void expectMatchesReference(const FaultMap& map, ReferenceMap& ref) {
  long stuck = 0, weak = 0;
  for (int a = 0; a < ref.arrays; ++a)
    for (int r = 0; r < ref.rows; ++r) {
      FaultMap::RowWords words = map.rowWords(a, r);
      for (int c = 0; c < ref.cols; ++c) {
        CellFault f = ref.at(a, r, c);
        SCOPED_TRACE(strCat("cell (", a, ", ", r, ", ", c, ")"));
        ASSERT_EQ(map.faultAt(a, r, c), f);
        bool isStuck = ReferenceMap::stuck(f);
        EXPECT_EQ(map.isStuck(a, r, c), isStuck);
        EXPECT_EQ(map.isWeak(a, r, c), f == CellFault::Weak);
        EXPECT_EQ(map.isUsable(a, r, c), f == CellFault::None);
        if (isStuck) {
          EXPECT_EQ(map.stuckBit(a, r, c), f == CellFault::StuckAtHrs);
        }
        EXPECT_EQ(words.isStuck(c), isStuck);
        EXPECT_EQ(words.stuckReadsOne(c), f == CellFault::StuckAtHrs);
        EXPECT_EQ(words.isWeak(c), f == CellFault::Weak);
        EXPECT_EQ(words.isUsable(c), f == CellFault::None);
        stuck += isStuck;
        weak += f == CellFault::Weak;
      }
      // Bits past the last column stay clear in every plane.
      if (ref.cols % 64 != 0) {
        size_t last = static_cast<size_t>(ref.cols) / 64;
        uint64_t padding = ~uint64_t{0} << (ref.cols % 64);
        EXPECT_EQ(words.stuck[last] & padding, 0u);
        EXPECT_EQ(words.stuckHrs[last] & padding, 0u);
        EXPECT_EQ(words.weak[last] & padding, 0u);
      }
    }
  EXPECT_EQ(map.stuckCellCount(), stuck);
  EXPECT_EQ(map.weakCellCount(), weak);
  for (int a = 0; a < ref.arrays; ++a)
    for (int limit : {0, 1, ref.rows - 16, ref.rows}) {
      std::vector<int> expected(static_cast<size_t>(ref.cols), 0);
      for (int r = 0; r < limit; ++r)
        for (int c = 0; c < ref.cols; ++c)
          expected[static_cast<size_t>(c)] +=
              ref.at(a, r, c) == CellFault::None;
      EXPECT_EQ(map.usableCellsPerColumn(a, limit), expected)
          << "array " << a << " row limit " << limit;
    }
}

TEST(FaultMap, QueriesMatchByteReference) {
  constexpr int kArrays = 2, kRows = 24;
  constexpr long kBudget = 2;
  const CellFault kKinds[] = {CellFault::None, CellFault::StuckAtLrs,
                              CellFault::StuckAtHrs, CellFault::Weak};
  for (int cols : {1, 63, 64, 65, 100}) {
    SCOPED_TRACE(strCat("cols ", cols));
    FaultMapOptions o;
    o.rowWriteBudget = kBudget;
    FaultMap map(kArrays, kRows, cols, o);
    ReferenceMap ref(kArrays, kRows, cols);
    Rng rng(static_cast<uint64_t>(cols));
    const long cells = map.totalCells();

    // Random placements of all four kinds, overwrites and clears among
    // them.
    for (long i = 0; i < cells; ++i) {
      int a = static_cast<int>(rng.below(kArrays));
      int r = static_cast<int>(rng.below(kRows));
      int c = static_cast<int>(rng.below(static_cast<uint64_t>(cols)));
      CellFault f = kKinds[rng.below(4)];
      map.setFault(a, r, c, f);
      ref.at(a, r, c) = f;
    }
    expectMatchesReference(map, ref);

    // Setting every cell back to None leaves a fresh map.
    FaultMap cleared = map;
    for (int a = 0; a < kArrays; ++a)
      for (int r = 0; r < kRows; ++r)
        for (int c = 0; c < cols; ++c)
          cleared.setFault(a, r, c, CellFault::None);
    FaultMap fresh(kArrays, kRows, cols, o);
    EXPECT_EQ(cleared, fresh);
    EXPECT_EQ(cleared.toText(), fresh.toText());

    // Wear-out: rows written past the budget turn stuck, HRS cells keep
    // their polarity.
    for (int i = 0; i < 3 * kRows; ++i) {
      int a = static_cast<int>(rng.below(kArrays));
      int r = static_cast<int>(rng.below(kRows));
      map.noteRowWrite(a, r);
      ref.noteRowWrite(a, r, kBudget);
    }
    expectMatchesReference(map, ref);
  }
}

TEST(FaultMap, RowWordsAreBoundsChecked) {
  FaultMap map(2, 8, 70);
  EXPECT_THROW(map.rowWords(2, 0), InternalError);
  EXPECT_THROW(map.rowWords(0, 8), InternalError);
  EXPECT_THROW(map.rowWords(-1, 0), InternalError);
  EXPECT_NO_THROW(map.rowWords(1, 7));
}

TEST(FaultMap, DensitiesMatchRequested) {
  FaultMap m = FaultMap::generate(8, 128, 128, denseOptions());
  double stuck = static_cast<double>(m.stuckCellCount()) / m.totalCells();
  double weak = static_cast<double>(m.weakCellCount()) / m.totalCells();
  // 131072 cells: binomial deviation is well under 20% relative.
  EXPECT_NEAR(stuck, 0.05, 0.01);
  EXPECT_NEAR(weak, 0.03, 0.006);
  // Stuck cells split between LRS and HRS polarities.
  long lrs = 0, hrs = 0;
  for (int a = 0; a < m.numArrays(); ++a)
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c) {
        if (m.faultAt(a, r, c) == CellFault::StuckAtLrs) ++lrs;
        if (m.faultAt(a, r, c) == CellFault::StuckAtHrs) ++hrs;
      }
  EXPECT_GT(lrs, 0);
  EXPECT_GT(hrs, 0);
  EXPECT_EQ(lrs + hrs, m.stuckCellCount());
}

TEST(FaultMap, StuckBitFollowsStateConvention) {
  FaultMap m(1, 8, 8);
  m.setFault(0, 1, 2, CellFault::StuckAtLrs);
  m.setFault(0, 3, 4, CellFault::StuckAtHrs);
  // LRS is logic '0', HRS is logic '1' (paper Sec. 2.1 convention).
  EXPECT_FALSE(m.stuckBit(0, 1, 2));
  EXPECT_TRUE(m.stuckBit(0, 3, 4));
  EXPECT_TRUE(m.isStuck(0, 1, 2));
  EXPECT_FALSE(m.isUsable(0, 1, 2));
  EXPECT_FALSE(m.isWeak(0, 1, 2));

  m.setFault(0, 5, 6, CellFault::Weak);
  EXPECT_TRUE(m.isWeak(0, 5, 6));
  EXPECT_FALSE(m.isStuck(0, 5, 6));
  EXPECT_FALSE(m.isUsable(0, 5, 6));  // placement treats weak as unusable
}

TEST(FaultMap, UsableCellsPerColumnHonorsRowLimit) {
  FaultMap m(2, 16, 4);
  using Counts = std::vector<int>;
  EXPECT_EQ(m.usableCellsPerColumn(0, 16), (Counts{16, 16, 16, 16}));
  EXPECT_EQ(m.usableCellsPerColumn(0, 10), (Counts{10, 10, 10, 10}));
  EXPECT_EQ(m.usableCellsPerColumn(1, 0), (Counts{0, 0, 0, 0}));
  m.setFault(0, 2, 0, CellFault::StuckAtHrs);
  m.setFault(0, 12, 0, CellFault::Weak);
  m.setFault(1, 3, 2, CellFault::StuckAtLrs);
  EXPECT_EQ(m.usableCellsPerColumn(0, 16), (Counts{14, 16, 16, 16}));
  // Row 12 is past the limit.
  EXPECT_EQ(m.usableCellsPerColumn(0, 10), (Counts{9, 10, 10, 10}));
  EXPECT_EQ(m.usableCellsPerColumn(1, 16), (Counts{16, 16, 15, 16}));
  EXPECT_THROW(m.usableCellsPerColumn(0, 17), Error);
}

TEST(FaultMap, EnduranceWearConvertsRowToStuck) {
  FaultMapOptions o;
  o.rowWriteBudget = 3;
  FaultMap m(1, 8, 4, o);
  m.setFault(0, 5, 1, CellFault::Weak);
  m.setFault(0, 5, 2, CellFault::StuckAtHrs);

  EXPECT_EQ(m.noteRowWrite(0, 5), 1);
  EXPECT_EQ(m.noteRowWrite(0, 5), 2);
  EXPECT_EQ(m.noteRowWrite(0, 5), 3);
  EXPECT_FALSE(m.rowWornOut(0, 5));
  EXPECT_EQ(m.faultAt(0, 5, 0), CellFault::None);

  // The write that exceeds the budget wears the row out: every cell that
  // still functioned (including the weak one) ends SET-stuck, while the
  // already-stuck HRS cell keeps its polarity.
  EXPECT_EQ(m.noteRowWrite(0, 5), 4);
  EXPECT_TRUE(m.rowWornOut(0, 5));
  EXPECT_EQ(m.rowWrites(0, 5), 4);
  EXPECT_EQ(m.faultAt(0, 5, 0), CellFault::StuckAtLrs);
  EXPECT_EQ(m.faultAt(0, 5, 1), CellFault::StuckAtLrs);
  EXPECT_EQ(m.faultAt(0, 5, 2), CellFault::StuckAtHrs);
  // Other rows are untouched.
  EXPECT_EQ(m.rowWrites(0, 4), 0);
  EXPECT_EQ(m.faultAt(0, 4, 0), CellFault::None);

  // Unlimited endurance (budget 0) never wears out.
  FaultMap eternal(1, 8, 4);
  for (int i = 0; i < 100; ++i) eternal.noteRowWrite(0, 0);
  EXPECT_FALSE(eternal.rowWornOut(0, 0));
  EXPECT_EQ(eternal.faultAt(0, 0, 0), CellFault::None);
}

// The text form, line for line, on a map small enough to read: the
// header, one line per fault in (array, row, column) order, then one
// `wear` line per written row. The generated-map digests pin the header
// and fault lines; this case also pins the `wear` line.
TEST(FaultMap, TextFormOfAHandBuiltMap) {
  FaultMap m(2, 4, 8);
  m.setFault(1, 3, 7, CellFault::StuckAtHrs);
  m.setFault(0, 1, 5, CellFault::Weak);
  m.setFault(0, 1, 2, CellFault::StuckAtLrs);
  m.noteRowWrite(1, 2);
  m.noteRowWrite(1, 2);
  EXPECT_EQ(m.toText(),
            "sherlock-faultmap v1\n"
            "arrays 2 rows 4 cols 8\n"
            "seed 1 stuck-density 0 weak-density 0 weak-mult 8 "
            "row-write-budget 0\n"
            "# stuck 2 weak 1 of 64 cells\n"
            "stuck-lrs 0 1 2\n"
            "weak 0 1 5\n"
            "stuck-hrs 1 3 7\n"
            "wear 1 2 2\n"
            "end\n");
}

TEST(FaultMap, RejectsNonPhysicalOptions) {
  FaultMapOptions o;
  o.stuckDensity = -0.1;
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
  o.stuckDensity = 0.7;
  o.weakDensity = 0.7;  // sum > 1
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
  o = {};
  o.weakPdfMultiplier = 0.5;  // a multiplier < 1 would *improve* weak cells
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
  o = {};
  o.rowWriteBudget = -1;
  EXPECT_THROW(FaultMap::generate(1, 8, 8, o), Error);
}

// Placement contract (property over fuzzed DAGs): with a fault map in
// effect, no instruction of the compiled program senses or programs a
// faulty cell — stuck *or* weak — on either mapper. This is the
// load-bearing guarantee behind spare-row repair: everything else
// (guarded execution, P_app accounting) assumes placed cells function.
TEST(FaultMap, PlacementNeverTouchesFaultyCells) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(strCat("seed ", seed));
    workloads::RandomDagSpec spec = sherlock::testing::sampleDagSpec(seed);
    ir::Graph g = transforms::canonicalize(workloads::buildRandomDag(spec));

    isa::TargetSpec target = isa::TargetSpec::square(
        64, TechnologyParams::reRam(), spec.maxArity);
    FaultMapOptions o;
    o.seed = seed * 977;
    o.stuckDensity = 0.04;
    o.weakDensity = 0.02;
    FaultMap map = FaultMap::generate(target.numArrays, target.rows(),
                                      target.cols(), o);

    for (mapping::Strategy strategy :
         {mapping::Strategy::Naive, mapping::Strategy::Optimized}) {
      SCOPED_TRACE(strategy == mapping::Strategy::Naive ? "naive" : "opt");
      mapping::CompileOptions copts;
      copts.strategy = strategy;
      copts.faults.map = &map;
      copts.faults.spareRows = 4;
      mapping::CompileResult compiled = mapping::compile(g, target, copts);

      for (const isa::Instruction& inst : compiled.program.instructions) {
        if (inst.kind != isa::InstKind::Read &&
            inst.kind != isa::InstKind::Write)
          continue;
        for (int col : inst.columns)
          for (int row : inst.rows)
            ASSERT_TRUE(map.isUsable(inst.arrayId, row, col))
                << cellFaultName(map.faultAt(inst.arrayId, row, col))
                << " cell touched at array " << inst.arrayId << " row "
                << row << " col " << col << " by: " << inst.toString();
      }
    }
  }
}

}  // namespace
}  // namespace sherlock::device
