// Bit-sliced arithmetic builder: constructs DAG circuits for multi-bit
// values represented as vectors of bulk slices (slice i = bit i of every
// element in the bulk dimension). Provides the word-level operators the
// workload kernels need — ripple-carry addition, two's-complement
// subtraction, absolute value, comparisons — all expanded into the bulk
// bitwise ops the CIM arrays execute.
#pragma once

#include <string>
#include <vector>

#include "ir/graph.h"

namespace sherlock::workloads {

/// A multi-bit bit-sliced value: slice(0) is the least significant bit.
using Word = std::vector<ir::NodeId>;

class BitsliceBuilder {
 public:
  explicit BitsliceBuilder(ir::Graph& g) : g_(g) {}

  ir::Graph& graph() { return g_; }

  /// Declares a `bits`-wide input word; slices are named
  /// "<name>.0" .. "<name>.<bits-1>".
  Word input(const std::string& name, int bits);

  /// A word holding the constant `value` in every bulk element.
  Word constant(uint64_t value, int bits);

  // --- slice-wise logic ---------------------------------------------------
  Word bitwiseAnd(const Word& a, const Word& b);
  Word bitwiseOr(const Word& a, const Word& b);
  Word bitwiseXor(const Word& a, const Word& b);
  Word bitwiseNot(const Word& a);

  // --- arithmetic (ripple carry) -------------------------------------------
  /// a + b, result width = max(width) + 1 (no overflow loss).
  Word add(const Word& a, const Word& b);

  /// a - b in two's complement; result width = max(width) + 1 with the top
  /// slice acting as the sign.
  Word sub(const Word& a, const Word& b);

  /// Absolute value of a two's-complement word (same width).
  Word abs(const Word& a);

  /// Doubles a word: logical shift left by one slice position (free —
  /// slices are renamed, matching the bit-sliced "2*p" idiom).
  Word shiftLeft(const Word& a, int amount);

  /// Zero/sign extension helpers.
  Word zeroExtend(const Word& a, int bits);
  Word signExtend(const Word& a, int bits);

  // --- comparisons (bit-serial, MSB first) ---------------------------------
  /// One slice: a >= b, unsigned.
  ir::NodeId greaterEqual(const Word& a, const Word& b);
  /// One slice: a <= b, unsigned.
  ir::NodeId lessEqual(const Word& a, const Word& b);
  /// One slice: a == b.
  ir::NodeId equal(const Word& a, const Word& b);

 private:
  ir::NodeId zero() { return g_.addConst(false); }
  ir::NodeId one() { return g_.addConst(true); }
  /// Pads both words to equal width with zero slices.
  std::pair<Word, Word> aligned(const Word& a, const Word& b);

  ir::Graph& g_;
};

}  // namespace sherlock::workloads
