// Unit tests for the support library: bit vectors, inline vectors, the
// hash index, RNG, statistics, tables, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "support/bitvector.h"
#include "support/diagnostics.h"
#include "support/hash_index.h"
#include "support/inline_vector.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace sherlock {
namespace {

/// A message part that counts how often it is streamed.
struct CountingPart {
  int* streams;
};

std::ostream& operator<<(std::ostream& os, const CountingPart& part) {
  ++*part.streams;
  return os << "part";
}

TEST(Diagnostics, CheckArgBuildsItsMessageOnlyOnFailure) {
  int streams = 0;
  CountingPart part{&streams};
  for (int i = 0; i < 100; ++i) checkArg(i >= 0, "index ", i, " ", part);
  EXPECT_EQ(streams, 0);
  try {
    checkArg(false, "bad ", part, " #", 7);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "bad part #7");
  }
  EXPECT_EQ(streams, 1);
}

TEST(BitVector, ConstructionAndAccess) {
  BitVector v(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_FALSE(v.any());
  v.set(0, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(35));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, AllOnesRespectsPadding) {
  BitVector v(70, true);
  EXPECT_TRUE(v.all());
  EXPECT_EQ(v.popcount(), 70u);
  // Complement of all-ones must be all-zeros, including the padded word.
  EXPECT_FALSE((~v).any());
}

TEST(BitVector, BitwiseOps) {
  auto a = BitVector::fromString("1100");
  auto b = BitVector::fromString("1010");
  EXPECT_EQ((a & b).toString(), "1000");
  EXPECT_EQ((a | b).toString(), "1110");
  EXPECT_EQ((a ^ b).toString(), "0110");
  EXPECT_EQ((~a).toString(), "0011");
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(8), b(9);
  EXPECT_THROW(a & b, InternalError);
}

TEST(BitVector, Shifts) {
  auto a = BitVector::fromString("0011");
  EXPECT_EQ(a.shiftedLeft(1).toString(), "0110");
  EXPECT_EQ(a.shiftedRight(1).toString(), "0001");
  EXPECT_EQ(a.shiftedLeft(4).toString(), "0000");
}

TEST(BitVector, SliceAndRoundTrip) {
  auto a = BitVector::fromUint64(0xdeadbeef, 32);
  EXPECT_EQ(a.toUint64(), 0xdeadbeefu);
  EXPECT_EQ(a.slice(0, 16).toUint64(), 0xbeefu);
  EXPECT_EQ(a.slice(16, 16).toUint64(), 0xdeadu);
  EXPECT_EQ(BitVector::fromString(a.toString()), a);
}

TEST(BitVector, FromStringRejectsBadChars) {
  EXPECT_THROW(BitVector::fromString("10x1"), Error);
}

/// Two elements inline, like an instruction's column list.
using SmallList = InlineVector<int, 2>;

/// The list {0, 10, 20, ...} of `n` elements, built by push_back.
SmallList tens(int n) {
  SmallList v;
  for (int i = 0; i < n; ++i) v.push_back(10 * i);
  return v;
}

TEST(InlineVector, PushBackKeepsContentsPastTheInlineSize) {
  for (int n : {1, 2, 3, 9}) {  // N - 1, N, N + 1 and 4N + 1
    SmallList v = tens(n);
    ASSERT_EQ(v.size(), static_cast<size_t>(n));
    EXPECT_EQ(v.isInline(), n <= 2) << n;
    for (int i = 0; i < n; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], 10 * i);
    EXPECT_EQ(v.front(), 0);
    EXPECT_EQ(v.back(), 10 * (n - 1));
  }
}

TEST(InlineVector, CopyAndMoveFromInlineAndHeapSources) {
  for (int n : {2, 5}) {
    const SmallList expected = tens(n);
    SmallList source = tens(n);
    SmallList copy(source);
    EXPECT_EQ(copy, expected);
    EXPECT_EQ(source, expected);

    SmallList moved(std::move(source));
    EXPECT_EQ(moved, expected);
    // A moved-from list is empty, holds no heap block, and is reusable.
    EXPECT_TRUE(source.empty());
    EXPECT_TRUE(source.isInline());
    source.push_back(7);
    EXPECT_EQ(source, SmallList({7}));

    SmallList assigned{1};
    assigned = std::move(moved);
    EXPECT_EQ(assigned, expected);
    EXPECT_TRUE(moved.empty());
    EXPECT_TRUE(moved.isInline());
    moved = tens(3);
    EXPECT_EQ(moved, tens(3));
  }
}

TEST(InlineVector, CopyAssignment) {
  SmallList v = tens(5);
  const SmallList& alias = v;
  v = alias;
  EXPECT_EQ(v, tens(5));

  SmallList heap = tens(5);
  SmallList inlined = tens(1);
  inlined = heap;  // heap source into an inline list
  EXPECT_EQ(inlined, tens(5));
  EXPECT_EQ(heap, tens(5));
  const SmallList small = tens(2);
  heap = small;  // inline source into a heap list
  EXPECT_EQ(heap, tens(2));
  EXPECT_EQ(small, tens(2));
}

TEST(InlineVector, AssignClearAndReuse) {
  SmallList v;
  v.assign(3, 7);
  EXPECT_EQ(v, std::vector<int>({7, 7, 7}));
  v.assign(1, 4);
  EXPECT_EQ(v, std::vector<int>({4}));
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(5);
  v.push_back(6);
  v.push_back(8);
  EXPECT_EQ(v, std::vector<int>({5, 6, 8}));
  v.pop_back();
  EXPECT_EQ(v, std::vector<int>({5, 6}));
}

TEST(InlineVector, InsertAndEraseKeepOrder) {
  SmallList v{10, 30};
  v.insert(v.begin() + 1, 20);  // grows past the inline size
  v.insert(v.begin(), 0);
  v.insert(v.end(), 40);
  EXPECT_EQ(v, std::vector<int>({0, 10, 20, 30, 40}));
  v.erase(v.begin() + 2);
  v.erase(v.begin());
  EXPECT_EQ(v, std::vector<int>({10, 30, 40}));
}

TEST(InlineVector, EqualityIgnoresWhereTheElementsLive) {
  SmallList inlined{1, 2};
  SmallList heap = inlined;
  heap.push_back(3);
  heap.pop_back();
  ASSERT_TRUE(inlined.isInline());
  ASSERT_FALSE(heap.isInline());
  EXPECT_EQ(inlined, heap);
  EXPECT_EQ(heap, std::vector<int>({1, 2}));
  EXPECT_EQ(std::vector<int>({1, 2}), inlined);
  EXPECT_NE(inlined, tens(2));
  EXPECT_NE(inlined, std::vector<int>({1, 2, 3}));
}

#ifdef _GLIBCXX_ASSERTIONS
TEST(InlineVectorDeathTest, IndexPastSizeAborts) {
  SmallList v{1};
  EXPECT_DEATH(v[v.size()], "out of range");
}
#endif

/// Keys held outside the index, as ir::Graph holds its nodes: id i is
/// keys[i], filed under hashOf(keys[i]).
struct KeyTable {
  uint32_t (*hashOf)(uint64_t);
  std::vector<uint64_t> keys;
  HashIndex index;

  int32_t find(uint64_t key) const {
    return index.find(hashOf(key), [&](int32_t id) {
      return keys[static_cast<size_t>(id)] == key;
    });
  }
  int32_t intern(uint64_t key) {
    return index.findOrInsert(
        hashOf(key),
        [&](int32_t id) { return keys[static_cast<size_t>(id)] == key; },
        [&] {
          keys.push_back(key);
          return static_cast<int32_t>(keys.size() - 1);
        });
  }
};

uint32_t oneHash(uint64_t) { return 7; }
uint32_t mixedHash(uint64_t key) {
  return static_cast<uint32_t>(splitmix64(key));
}

/// Every key of `t` is found under its own id, and a key it never held
/// is not.
void expectAllFound(const KeyTable& t) {
  EXPECT_EQ(t.index.size(), t.keys.size());
  for (size_t i = 0; i < t.keys.size(); ++i)
    ASSERT_EQ(t.find(t.keys[i]), static_cast<int32_t>(i)) << "key " << i;
  EXPECT_EQ(t.find(~uint64_t{0}), HashIndex::kNone);
}

TEST(HashIndex, FindsEveryKeyWhenAllShareOneHash) {
  // One probe chain through 16 -> 1024 slots: only the equality test
  // tells the entries apart.
  KeyTable t{oneHash, {}, {}};
  EXPECT_EQ(t.find(3), HashIndex::kNone);  // empty, no slots yet
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_EQ(t.intern(k * 3), static_cast<int32_t>(k));
    ASSERT_EQ(t.intern(k * 3), static_cast<int32_t>(k));  // a hit adds none
  }
  expectAllFound(t);

  KeyTable copy = t;
  expectAllFound(copy);
  copy.intern(1);  // a copy owns its slots
  EXPECT_EQ(copy.index.size(), 401u);
  EXPECT_EQ(t.index.size(), 400u);
  EXPECT_EQ(t.find(1), HashIndex::kNone);

  KeyTable moved = std::move(copy);
  expectAllFound(moved);
  EXPECT_EQ(moved.find(1), 400);
}

TEST(HashIndex, FindsEveryKeyAcrossGrowthAndReserve) {
  KeyTable grown{mixedHash, {}, {}};
  KeyTable reserved{mixedHash, {}, {}};
  reserved.index.reserve(5000);
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(grown.intern(k * 0x9e37), static_cast<int32_t>(k));
    ASSERT_EQ(reserved.intern(k * 0x9e37), static_cast<int32_t>(k));
  }
  expectAllFound(grown);
  expectAllFound(reserved);
  reserved.index.reserve(10);  // never shrinks
  expectAllFound(reserved);
}

TEST(Rng, DeterministicAndDistinctSeeds) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a(), b());
  Rng a2(1);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.below(17), 17u);
    int64_t r = rng.range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
  }
}

TEST(Rng, BelowIsUnbiasedAtLargeBounds) {
  // bound = 3 * 2^62: reducing a uniform 64-bit draw with naive modulo
  // gives every value below 2^62 two preimages (x and x + bound) and
  // every other value one, so P(result < 2^62) would be 1/2 instead of
  // the unbiased 1/3. Lemire rejection sampling must keep it at 1/3.
  Rng rng(123);
  const uint64_t bound = uint64_t{3} << 62;
  const int kDraws = 30000;
  int low = 0;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = rng.below(bound);
    ASSERT_LT(v, bound);
    if (v < (uint64_t{1} << 62)) ++low;
  }
  double frac = static_cast<double>(low) / kDraws;
  // 1/3 +- ~5.5 sigma (sigma = sqrt(p(1-p)/n) ~ 0.0027); the modulo bias
  // would land at ~0.5, ~60 sigma away.
  EXPECT_NEAR(frac, 1.0 / 3.0, 0.015);
}

TEST(Rng, BelowIsDeterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.below(999983), b.below(999983));
}

TEST(Rng, SampleBernoulliBitsMatchesBernoulliRate) {
  // The batched geometric sampler must reproduce the per-lane Bernoulli
  // flip rate it replaces: over N lanes, flips ~ Binomial(N, p).
  constexpr size_t kWords = 64;          // 4096 lanes per call
  constexpr int kCalls = 50;             // 204800 lanes total
  const double ps[] = {0.001, 0.05, 0.3};
  Rng rng(2024);
  for (double p : ps) {
    long flips = 0;
    for (int c = 0; c < kCalls; ++c) {
      std::vector<uint64_t> words(kWords, 0);
      long n = sampleBernoulliBits(rng, p, words.data(), kWords);
      // The return value is the number of toggles; from a zero buffer
      // each toggle sets a distinct bit.
      long pop = 0;
      for (uint64_t w : words) pop += std::popcount(w);
      ASSERT_EQ(n, pop);
      flips += n;
    }
    const double lanes = 64.0 * kWords * kCalls;
    double expected = p * lanes;
    double sigma = std::sqrt(lanes * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(flips), expected, 5.0 * sigma)
        << "flip rate off for p = " << p;
  }
}

TEST(Rng, SampleBernoulliBitsEdgeCases) {
  std::vector<uint64_t> words(4, 0xdeadbeefdeadbeefULL);
  Rng rng(1);
  // p = 0: no toggles.
  EXPECT_EQ(sampleBernoulliBits(rng, 0.0, words.data(), words.size()), 0);
  EXPECT_EQ(words[0], 0xdeadbeefdeadbeefULL);
  // p = 1: every lane toggles (XOR semantics, not set).
  EXPECT_EQ(sampleBernoulliBits(rng, 1.0, words.data(), words.size()),
            static_cast<long>(64 * words.size()));
  EXPECT_EQ(words[0], ~0xdeadbeefdeadbeefULL);
  // Empty buffer.
  EXPECT_EQ(sampleBernoulliBits(rng, 0.5, nullptr, 0), 0);
}

TEST(Rng, SampleBernoulliBitsIsDeterministic) {
  std::vector<uint64_t> a(8, 0), b(8, 0);
  Rng ra(99), rb(99);
  long na = sampleBernoulliBits(ra, 0.07, a.data(), a.size());
  long nb = sampleBernoulliBits(rb, 0.07, b.data(), b.size());
  EXPECT_EQ(na, nb);
  EXPECT_EQ(a, b);
  EXPECT_GT(na, 0);  // 512 lanes at p = 0.07: zero flips is implausible
}

TEST(Stats, MeanGeomeanStddev) {
  std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_NEAR(stddev(xs), 1.5275252316519468, 1e-9);
  EXPECT_THROW(geomean({1.0, -1.0}), Error);
}

TEST(Stats, GeomeanEdgeCases) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({3.5}), 3.5);
  EXPECT_THROW(geomean({0.0}), Error);
  EXPECT_THROW(geomean({2.0, 0.0, 4.0}), Error);
}

TEST(Stats, GeomeanSafeFloorsNonPositiveInputs) {
  // Strictly positive inputs match geomean exactly.
  std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(geomeanSafe(xs), geomean(xs));
  // Zero and negative entries are floored instead of throwing.
  EXPECT_NEAR(geomeanSafe({4.0, 0.0}, 0.25), 1.0, 1e-12);
  EXPECT_NEAR(geomeanSafe({4.0, -7.0}, 0.25), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomeanSafe({}), 0.0);
  EXPECT_GT(geomeanSafe({1.0, 0.0}), 0.0);
  EXPECT_THROW(geomeanSafe({1.0}, 0.0), Error);
  EXPECT_THROW(geomeanSafe({1.0}, -1.0), Error);
}

TEST(Stats, Quantile) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Stats, QuantileEdgeCases) {
  EXPECT_DOUBLE_EQ(quantile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile({42.0}, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(quantile({42.0}, 1.0), 42.0);
  EXPECT_THROW(quantile({}, 0.5), Error);
  EXPECT_THROW(quantile({1.0, 2.0}, -0.1), Error);
  EXPECT_THROW(quantile({1.0, 2.0}, 1.1), Error);
}

TEST(Parallel, SplitMixDeterministicAndDecorrelated) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
  EXPECT_EQ(deriveSeed(7, 0), deriveSeed(7, 0));
  // Adjacent trial indices and adjacent base seeds both give distinct
  // streams.
  EXPECT_NE(deriveSeed(7, 0), deriveSeed(7, 1));
  EXPECT_NE(deriveSeed(7, 0), deriveSeed(8, 0));
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, SerialPoolRunsInOrderOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1);
  std::vector<int64_t> order;
  const std::thread::id self = std::this_thread::get_id();
  pool.parallelFor(16, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    order.push_back(i);
  });
  std::vector<int64_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(100,
                       [&](int64_t i) {
                         if (i == 37) throw Error("iteration 37 failed");
                       }),
      Error);
  // The pool survives a failed batch and keeps scheduling new ones.
  std::atomic<int64_t> sum{0};
  pool.parallelFor(10, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(Parallel, ExceptionCancelsUnclaimedIterations) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallelFor(100000,
                                [&](int64_t) {
                                  executed.fetch_add(1);
                                  throw Error("fail fast");
                                }),
               Error);
  // At most one claim per pool lane can still be in flight when the
  // cancellation lands.
  EXPECT_LE(executed.load(), pool.threadCount());
}

TEST(Parallel, NestedParallelForFlattensWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 8, kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallelFor(kOuter, [&](int64_t i) {
    const std::thread::id outerThread = std::this_thread::get_id();
    pool.parallelFor(kInner, [&](int64_t j) {
      // The flattened inner loop must stay on the worker it landed on.
      EXPECT_EQ(std::this_thread::get_id(), outerThread);
      hits[i * kInner + j].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, RepeatedNestedCallsStayFlattened) {
  // A flattened nested call must not end the region it runs in: the
  // second nested loop stays on the calling thread as well.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  pool.parallelFor(1, [&](int64_t) {
    pool.parallelFor(2, [](int64_t) {});
    pool.parallelFor(2000, [&](int64_t) {
      if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(5));
    });
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(Parallel, ParallelMapPreservesInputOrder) {
  ThreadPool pool(8);
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  auto squares =
      parallelMap(pool, items, [](const int& x) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(Parallel, ParallelMapMatchesSerialBitExactly) {
  // The determinism contract: identical results for any thread count.
  std::vector<uint64_t> trials(128);
  std::iota(trials.begin(), trials.end(), 0);
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    return parallelMap(pool, trials, [](const uint64_t& t) {
      Rng rng(deriveSeed(0xabcdef, t));
      uint64_t acc = 0;
      for (int i = 0; i < 100; ++i) acc ^= rng();
      return acc;
    });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(Parallel, DefaultThreadsHonorsEnvOverride) {
  ::setenv("SHERLOCK_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreads(), 3);
  ThreadPool pool;  // picks up the override
  EXPECT_EQ(pool.threadCount(), 3);
  ::setenv("SHERLOCK_THREADS", "garbage", 1);
  EXPECT_GE(ThreadPool::defaultThreads(), 1);
  ::setenv("SHERLOCK_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::defaultThreads(), 1);
  ::unsetenv("SHERLOCK_THREADS");
  EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(Stats, NormalTailAccuracy) {
  EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normalTail(0.0), 0.5, 1e-12);
  // Far tail stays positive and decreasing (the reliability model lives
  // out here).
  double p6 = normalTail(6.0);
  double p8 = normalTail(8.0);
  EXPECT_GT(p6, 0.0);
  EXPECT_GT(p8, 0.0);
  EXPECT_LT(p8, p6);
  EXPECT_NEAR(p6, 9.8659e-10, 1e-13);
}

TEST(Table, RendersAlignedCells) {
  Table t("demo");
  t.setHeader({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addSeparator();
  t.addRow({"b", "22"});
  std::string s = t.toString();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22    |"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::sci(0.000123, 1), "1.2e-04");
}

}  // namespace
}  // namespace sherlock
