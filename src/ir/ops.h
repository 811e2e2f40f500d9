// Bulk-bitwise operation kinds supported by scouting-logic CIM arrays and
// helpers for evaluating them on 64-bit slices of bulk operands.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace sherlock::ir {

/// Logic operation performed column-wise by the CIM array (scouting logic
/// natively provides (N)AND / (N)OR / X(N)OR; NOT and COPY are realized by
/// row-buffer CMOS circuitry).
enum class OpKind {
  And,
  Or,
  Xor,
  Nand,
  Nor,
  Xnor,
  Not,   // single operand, row-buffer inverter
  Copy,  // single operand, row clone
};

/// Human-readable mnemonic ("AND", "XOR", ...).
std::string opName(OpKind op);

/// Parses a mnemonic produced by opName. Throws Error on unknown names.
OpKind opFromName(const std::string& name);

/// True for ops that take exactly one operand (Not, Copy).
bool isUnary(OpKind op);

/// The base op of an inverted kind (AND for NAND, OR for NOR, XOR for
/// XNOR); every other op is its own base.
OpKind baseOp(OpKind op);

/// True for the inverted kinds NAND, NOR and XNOR.
bool isInverted(OpKind op);

/// The multi-operand kind computing the complement of `op` (AND <-> NAND,
/// OR <-> NOR, XOR <-> XNOR). Throws InternalError for NOT and COPY.
OpKind complementOp(OpKind op);

/// The op f such that f(a, b, c, ...) == op(op(a, b), c) ... holds when
/// flattening a tree of identical ops into one multi-operand node.
/// For And/Or/Xor this is the op itself; Nand/Nor/Xnor are NOT
/// tree-flattenable (nand(nand(a,b),c) != nand(a,b,c)), so this returns
/// false via isSubstitutable.
bool isSubstitutable(OpKind op);

/// Evaluates `op` over `operands` (bit-parallel on 64-bit slices).
/// Multi-operand semantics: And/Nand = conjunction over all operands,
/// Or/Nor = disjunction, Xor/Xnor = parity. Unary ops require exactly one
/// operand.
uint64_t evalOp(OpKind op, std::span<const uint64_t> operands);

/// Packed-lane evaluation: applies `op` across `n` operand arrays of
/// `words` contiguous 64-bit words each (64 * words lockstep lanes),
/// writing the result into out[0 .. words). The inner loops run word-wise
/// over flat arrays so they autovectorize. `out` may alias operands[0]
/// but no other operand. Same arity rules as evalOp.
void evalOpWide(OpKind op, const uint64_t* const* operands, size_t n,
                size_t words, uint64_t* out);

}  // namespace sherlock::ir
