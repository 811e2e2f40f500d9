// Functional correctness of the workload DAG generators against their
// plain-integer references, checked through the IR evaluator.
#include <gtest/gtest.h>

#include <set>

#include "ir/analysis.h"
#include "ir/evaluator.h"
#include "support/rng.h"
#include "workloads/aes.h"
#include "workloads/aes_math.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock {
namespace {

using workloads::BitweavingSpec;
using workloads::RandomDagSpec;
using workloads::SobelSpec;

std::map<std::string, uint64_t> packWord(const std::string& prefix,
                                         const std::vector<uint64_t>& lanes,
                                         int bits) {
  std::map<std::string, uint64_t> out;
  for (int b = 0; b < bits; ++b) {
    uint64_t word = 0;
    for (size_t lane = 0; lane < lanes.size(); ++lane)
      if ((lanes[lane] >> b) & 1) word |= uint64_t{1} << lane;
    out[strCat(prefix, ".", b)] = word;
  }
  return out;
}

TEST(Bitweaving, MatchesReferenceAcrossLanes) {
  const int bits = 12;
  ir::Graph g = workloads::buildBitweaving({bits});
  g.validate();

  Rng rng(11);
  std::vector<uint64_t> values(64), c1s(64), c2s(64);
  uint64_t c1 = rng.below(1 << bits);
  uint64_t c2 = c1 + rng.below((1 << bits) - c1);
  for (int lane = 0; lane < 64; ++lane) {
    values[static_cast<size_t>(lane)] = rng.below(1 << bits);
    c1s[static_cast<size_t>(lane)] = c1;
    c2s[static_cast<size_t>(lane)] = c2;
  }

  std::map<std::string, uint64_t> inputs = packWord("v", values, bits);
  auto ci1 = packWord("c1", c1s, bits);
  auto ci2 = packWord("c2", c2s, bits);
  inputs.insert(ci1.begin(), ci1.end());
  inputs.insert(ci2.begin(), ci2.end());

  auto words = ir::evaluateAllWords(g, inputs);
  uint64_t result = words[static_cast<size_t>(g.outputs()[0])];
  for (int lane = 0; lane < 64; ++lane) {
    bool expected = workloads::bitweavingReference(
        values[static_cast<size_t>(lane)], c1, c2, bits);
    EXPECT_EQ(((result >> lane) & 1) != 0, expected) << "lane " << lane;
  }
}

TEST(Bitweaving, EdgeValues) {
  const int bits = 8;
  ir::Graph g = workloads::buildBitweaving({bits});
  // Lanes exercise the boundary cases v == c1, v == c2, v just outside.
  std::vector<uint64_t> values{10, 20, 9, 21, 0, 255, 10, 20};
  std::vector<uint64_t> c1s(values.size(), 10), c2s(values.size(), 20);
  auto inputs = packWord("v", values, bits);
  auto a = packWord("c1", c1s, bits);
  auto b = packWord("c2", c2s, bits);
  inputs.insert(a.begin(), a.end());
  inputs.insert(b.begin(), b.end());
  auto words = ir::evaluateAllWords(g, inputs);
  uint64_t result = words[static_cast<size_t>(g.outputs()[0])];
  std::vector<bool> expected{true, true, false, false,
                             false, false, true, true};
  for (size_t lane = 0; lane < values.size(); ++lane)
    EXPECT_EQ(((result >> lane) & 1) != 0, expected[lane]) << lane;
}

TEST(Sobel, MatchesReferenceAcrossLanesAndWindows) {
  SobelSpec spec;
  spec.width = 4;
  ir::Graph g = workloads::buildSobel(spec);
  g.validate();
  ASSERT_EQ(g.outputs().size(), 4u);

  Rng rng(17);
  // patch[r][c][lane]
  std::vector<std::vector<std::vector<uint64_t>>> patch(
      3, std::vector<std::vector<uint64_t>>(
             static_cast<size_t>(spec.width + 2),
             std::vector<uint64_t>(64)));
  std::map<std::string, uint64_t> inputs;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < spec.width + 2; ++c) {
      for (auto& p : patch[static_cast<size_t>(r)][static_cast<size_t>(c)])
        p = rng.below(256);
      auto packed = packWord(
          workloads::sobelPixelName(r, c),
          patch[static_cast<size_t>(r)][static_cast<size_t>(c)],
          spec.pixelBits);
      inputs.insert(packed.begin(), packed.end());
    }
  auto words = ir::evaluateAllWords(g, inputs);
  for (int x = 0; x < spec.width; ++x) {
    uint64_t result =
        words[static_cast<size_t>(g.outputs()[static_cast<size_t>(x)])];
    for (int lane = 0; lane < 64; ++lane) {
      auto px = [&](int r, int c) {
        return patch[static_cast<size_t>(r)][static_cast<size_t>(c)]
                    [static_cast<size_t>(lane)];
      };
      uint64_t neigh[8] = {px(0, x),     px(0, x + 1), px(0, x + 2),
                           px(1, x),     px(1, x + 2), px(2, x),
                           px(2, x + 1), px(2, x + 2)};
      EXPECT_EQ(((result >> lane) & 1) != 0,
                workloads::sobelReference(neigh, spec))
          << "window " << x << " lane " << lane;
    }
  }
}

TEST(Bitweaving, MultiSegmentSharesConstants) {
  workloads::BitweavingSpec spec;
  spec.bits = 8;
  spec.segments = 3;
  ir::Graph g = workloads::buildBitweaving(spec);
  g.validate();
  EXPECT_EQ(g.outputs().size(), 3u);
  // Inputs: shared c1/c2 plus one value word per segment.
  EXPECT_EQ(g.inputCount(), static_cast<size_t>(8 * (2 + 3)));
  std::map<std::string, uint64_t> in;
  for (int b = 0; b < 8; ++b) {
    in[strCat("c1.", b)] = (10 >> b) & 1 ? ~uint64_t{0} : 0;
    in[strCat("c2.", b)] = (20 >> b) & 1 ? ~uint64_t{0} : 0;
    in[strCat("v.", b)] = (15 >> b) & 1 ? ~uint64_t{0} : 0;   // inside
    in[strCat("v1.", b)] = (5 >> b) & 1 ? ~uint64_t{0} : 0;   // below
    in[strCat("v2.", b)] = (20 >> b) & 1 ? ~uint64_t{0} : 0;  // boundary
  }
  auto words = ir::evaluateAllWords(g, in);
  EXPECT_EQ(words[static_cast<size_t>(g.outputs()[0])] & 1, 1u);
  EXPECT_EQ(words[static_cast<size_t>(g.outputs()[1])] & 1, 0u);
  EXPECT_EQ(words[static_cast<size_t>(g.outputs()[2])] & 1, 1u);
}

TEST(AesMath, SboxKnownValues) {
  // FIPS-197 reference values.
  EXPECT_EQ(workloads::aes::sbox(0x00), 0x63);
  EXPECT_EQ(workloads::aes::sbox(0x01), 0x7c);
  EXPECT_EQ(workloads::aes::sbox(0x53), 0xed);
  EXPECT_EQ(workloads::aes::sbox(0xff), 0x16);
  // A permutation: the 256 outputs are distinct.
  std::set<uint8_t> outputs;
  for (int v = 0; v < 256; ++v)
    outputs.insert(workloads::aes::sbox(static_cast<uint8_t>(v)));
  EXPECT_EQ(outputs.size(), 256u);
}

TEST(AesMath, GfInverseRoundTrips) {
  for (int v = 1; v < 256; ++v) {
    uint8_t b = static_cast<uint8_t>(v);
    EXPECT_EQ(workloads::aes::gfMul(b, workloads::aes::gfInv(b)), 1)
        << "value " << v;
  }
}

TEST(AesMath, Fips197KnownAnswer) {
  // FIPS-197 Appendix B example.
  std::array<uint8_t, 16> plain{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                                0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                                0xe0, 0x37, 0x07, 0x34};
  std::array<uint8_t, 16> key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};
  std::array<uint8_t, 16> expected{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                   0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                   0x19, 0x6a, 0x0b, 0x32};
  EXPECT_EQ(workloads::aes::encryptBlock(plain, key), expected);
}

TEST(AesCircuit, OneRoundMatchesReference) {
  ir::Graph g = workloads::buildAes({1});
  g.validate();

  Rng rng(23);
  std::vector<std::array<uint8_t, 16>> blocks(8);
  for (auto& blk : blocks)
    for (auto& byte : blk) byte = static_cast<uint8_t>(rng.below(256));
  std::array<uint8_t, 16> key{};
  for (auto& byte : key) byte = static_cast<uint8_t>(rng.below(256));

  auto inputs = workloads::packPlaintext(blocks);
  auto rk = workloads::packRoundKeys(key, 1);
  inputs.insert(rk.begin(), rk.end());

  auto words = ir::evaluateAllWords(g, inputs);
  std::vector<uint64_t> outSlices;
  for (ir::NodeId out : g.outputs())
    outSlices.push_back(words[static_cast<size_t>(out)]);

  for (size_t lane = 0; lane < blocks.size(); ++lane) {
    auto expected = workloads::aes::encryptBlock(blocks[lane], key, 1);
    auto actual =
        workloads::unpackState(outSlices, static_cast<int>(lane));
    EXPECT_EQ(actual, expected) << "lane " << lane;
  }
}

TEST(AesCircuit, FullAesMatchesFips197) {
  ir::Graph g = workloads::buildAes({10});
  std::array<uint8_t, 16> plain{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                                0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                                0xe0, 0x37, 0x07, 0x34};
  std::array<uint8_t, 16> key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};
  auto inputs = workloads::packPlaintext({plain});
  auto rk = workloads::packRoundKeys(key, 10);
  inputs.insert(rk.begin(), rk.end());
  auto words = ir::evaluateAllWords(g, inputs);
  std::vector<uint64_t> outSlices;
  for (ir::NodeId out : g.outputs())
    outSlices.push_back(words[static_cast<size_t>(out)]);
  auto actual = workloads::unpackState(outSlices, 0);
  std::array<uint8_t, 16> expected{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                   0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                   0x19, 0x6a, 0x0b, 0x32};
  EXPECT_EQ(actual, expected);
}

TEST(RandomDag, GeneratesValidGraphs) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomDagSpec spec;
    spec.seed = seed;
    spec.ops = 200;
    spec.maxArity = 4;
    ir::Graph g = workloads::buildRandomDag(spec);
    EXPECT_NO_THROW(g.validate()) << "seed " << seed;
    EXPECT_FALSE(g.outputs().empty());
    EXPECT_GE(g.opCount(), 1u);
  }
}

TEST(RandomDag, DeterministicForSeed) {
  RandomDagSpec spec;
  spec.seed = 99;
  ir::Graph a = workloads::buildRandomDag(spec);
  ir::Graph b = workloads::buildRandomDag(spec);
  ASSERT_EQ(a.numNodes(), b.numNodes());
  for (ir::NodeId i = a.firstId(); i < a.endId(); ++i) {
    EXPECT_EQ(a.node(i).kind, b.node(i).kind);
    EXPECT_EQ(a.node(i).operands, b.node(i).operands);
  }
}

}  // namespace
}  // namespace sherlock
