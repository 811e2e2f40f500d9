#include "ir/ops.h"

#include "support/diagnostics.h"

namespace sherlock::ir {

std::string opName(OpKind op) {
  switch (op) {
    case OpKind::And: return "AND";
    case OpKind::Or: return "OR";
    case OpKind::Xor: return "XOR";
    case OpKind::Nand: return "NAND";
    case OpKind::Nor: return "NOR";
    case OpKind::Xnor: return "XNOR";
    case OpKind::Not: return "NOT";
    case OpKind::Copy: return "COPY";
  }
  throw InternalError("opName: invalid OpKind");
}

OpKind opFromName(const std::string& name) {
  if (name == "AND") return OpKind::And;
  if (name == "OR") return OpKind::Or;
  if (name == "XOR") return OpKind::Xor;
  if (name == "NAND") return OpKind::Nand;
  if (name == "NOR") return OpKind::Nor;
  if (name == "XNOR") return OpKind::Xnor;
  if (name == "NOT") return OpKind::Not;
  if (name == "COPY") return OpKind::Copy;
  throw Error(strCat("unknown operation mnemonic: ", name));
}

bool isUnary(OpKind op) { return op == OpKind::Not || op == OpKind::Copy; }

bool isMultiOperand(OpKind op) { return !isUnary(op); }

OpKind baseOp(OpKind op) {
  switch (op) {
    case OpKind::Nand: return OpKind::And;
    case OpKind::Nor: return OpKind::Or;
    case OpKind::Xnor: return OpKind::Xor;
    default: return op;
  }
}

bool isInverted(OpKind op) {
  return op == OpKind::Nand || op == OpKind::Nor || op == OpKind::Xnor;
}

OpKind complementOp(OpKind op) {
  switch (op) {
    case OpKind::And: return OpKind::Nand;
    case OpKind::Nand: return OpKind::And;
    case OpKind::Or: return OpKind::Nor;
    case OpKind::Nor: return OpKind::Or;
    case OpKind::Xor: return OpKind::Xnor;
    case OpKind::Xnor: return OpKind::Xor;
    default: throw InternalError("complementOp: unary op has no complement");
  }
}

bool isSubstitutable(OpKind op) {
  // Only associative ops allow replacing op(op(a,b),c) by op(a,b,c).
  return op == OpKind::And || op == OpKind::Or || op == OpKind::Xor;
}

uint64_t evalOp(OpKind op, std::span<const uint64_t> operands) {
  if (isUnary(op)) {
    checkArg(operands.size() == 1,
             strCat(opName(op), " takes exactly one operand, got ",
                    operands.size()));
    return op == OpKind::Not ? ~operands[0] : operands[0];
  }
  checkArg(operands.size() >= 2,
           strCat(opName(op), " takes at least two operands, got ",
                  operands.size()));
  uint64_t acc = operands[0];
  for (size_t i = 1; i < operands.size(); ++i) {
    switch (op) {
      case OpKind::And:
      case OpKind::Nand: acc &= operands[i]; break;
      case OpKind::Or:
      case OpKind::Nor: acc |= operands[i]; break;
      case OpKind::Xor:
      case OpKind::Xnor: acc ^= operands[i]; break;
      default: throw InternalError("evalOp: unreachable");
    }
  }
  switch (op) {
    case OpKind::Nand:
    case OpKind::Nor:
    case OpKind::Xnor: return ~acc;
    default: return acc;
  }
}

void evalOpWide(OpKind op, const uint64_t* const* operands, size_t n,
                size_t words, uint64_t* out) {
  if (isUnary(op)) {
    checkArg(n == 1, strCat(opName(op), " takes exactly one operand, got ",
                            n));
    const uint64_t* a = operands[0];
    if (op == OpKind::Not)
      for (size_t w = 0; w < words; ++w) out[w] = ~a[w];
    else if (out != a)
      for (size_t w = 0; w < words; ++w) out[w] = a[w];
    return;
  }
  checkArg(n >= 2, strCat(opName(op), " takes at least two operands, got ",
                          n));
  const uint64_t* first = operands[0];
  if (out != first)
    for (size_t w = 0; w < words; ++w) out[w] = first[w];
  for (size_t i = 1; i < n; ++i) {
    const uint64_t* o = operands[i];
    switch (op) {
      case OpKind::And:
      case OpKind::Nand:
        for (size_t w = 0; w < words; ++w) out[w] &= o[w];
        break;
      case OpKind::Or:
      case OpKind::Nor:
        for (size_t w = 0; w < words; ++w) out[w] |= o[w];
        break;
      case OpKind::Xor:
      case OpKind::Xnor:
        for (size_t w = 0; w < words; ++w) out[w] ^= o[w];
        break;
      default:
        throw InternalError("evalOpWide: unreachable");
    }
  }
  switch (op) {
    case OpKind::Nand:
    case OpKind::Nor:
    case OpKind::Xnor:
      for (size_t w = 0; w < words; ++w) out[w] = ~out[w];
      break;
    default:
      break;
  }
}

}  // namespace sherlock::ir
