#include "workloads/bitslice_builder.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace sherlock::workloads {

using ir::NodeId;
using ir::OpKind;

Word BitsliceBuilder::input(const std::string& name, int bits) {
  checkArg(bits > 0, "input width must be positive");
  Word w;
  w.reserve(static_cast<size_t>(bits));
  for (int i = 0; i < bits; ++i)
    w.push_back(g_.addInput(strCat(name, ".", i)));
  return w;
}

Word BitsliceBuilder::constant(uint64_t value, int bits) {
  checkArg(bits > 0 && bits <= 64, "constant width must be in [1, 64]");
  Word w;
  for (int i = 0; i < bits; ++i)
    w.push_back(((value >> i) & 1) ? one() : zero());
  return w;
}

std::pair<Word, Word> BitsliceBuilder::aligned(const Word& a,
                                               const Word& b) {
  size_t width = std::max(a.size(), b.size());
  Word pa = a, pb = b;
  while (pa.size() < width) pa.push_back(zero());
  while (pb.size() < width) pb.push_back(zero());
  return {std::move(pa), std::move(pb)};
}

Word BitsliceBuilder::bitwiseAnd(const Word& a, const Word& b) {
  auto [pa, pb] = aligned(a, b);
  Word r;
  for (size_t i = 0; i < pa.size(); ++i)
    r.push_back(g_.addOp(OpKind::And, {pa[i], pb[i]}));
  return r;
}

Word BitsliceBuilder::bitwiseOr(const Word& a, const Word& b) {
  auto [pa, pb] = aligned(a, b);
  Word r;
  for (size_t i = 0; i < pa.size(); ++i)
    r.push_back(g_.addOp(OpKind::Or, {pa[i], pb[i]}));
  return r;
}

Word BitsliceBuilder::bitwiseXor(const Word& a, const Word& b) {
  auto [pa, pb] = aligned(a, b);
  Word r;
  for (size_t i = 0; i < pa.size(); ++i)
    r.push_back(g_.addOp(OpKind::Xor, {pa[i], pb[i]}));
  return r;
}

Word BitsliceBuilder::bitwiseNot(const Word& a) {
  Word r;
  for (NodeId s : a) r.push_back(g_.addOp(OpKind::Not, {s}));
  return r;
}

Word BitsliceBuilder::add(const Word& a, const Word& b) {
  auto [pa, pb] = aligned(a, b);
  Word sum;
  NodeId carry = zero();
  for (size_t i = 0; i < pa.size(); ++i) {
    NodeId axb = g_.addOp(OpKind::Xor, {pa[i], pb[i]});
    sum.push_back(g_.addOp(OpKind::Xor, {axb, carry}));
    NodeId gen = g_.addOp(OpKind::And, {pa[i], pb[i]});
    NodeId prop = g_.addOp(OpKind::And, {axb, carry});
    carry = g_.addOp(OpKind::Or, {gen, prop});
  }
  sum.push_back(carry);
  return sum;
}

Word BitsliceBuilder::sub(const Word& a, const Word& b) {
  // a - b = a + ~b + 1 over width max+1, keeping the sign slice on top.
  size_t width = std::max(a.size(), b.size()) + 1;
  Word pa = zeroExtend(a, static_cast<int>(width));
  Word pb = zeroExtend(b, static_cast<int>(width));
  Word diff;
  NodeId carry = one();
  for (size_t i = 0; i < width; ++i) {
    NodeId nb = g_.addOp(OpKind::Not, {pb[i]});
    NodeId axb = g_.addOp(OpKind::Xor, {pa[i], nb});
    diff.push_back(g_.addOp(OpKind::Xor, {axb, carry}));
    NodeId gen = g_.addOp(OpKind::And, {pa[i], nb});
    NodeId prop = g_.addOp(OpKind::And, {axb, carry});
    carry = g_.addOp(OpKind::Or, {gen, prop});
  }
  return diff;
}

Word BitsliceBuilder::abs(const Word& a) {
  checkArg(!a.empty(), "abs of empty word");
  NodeId sign = a.back();
  // |a| = (a XOR sign) + sign  (conditional two's-complement negation);
  // the sign slice XORs with itself to the constant zero.
  Word flipped;
  for (NodeId s : a) flipped.push_back(g_.addOp(OpKind::Xor, {s, sign}));
  Word signWord{sign};
  Word r = add(flipped, signWord);
  r.resize(a.size());  // |a| of an n-bit signed value fits n bits
  return r;
}

Word BitsliceBuilder::shiftLeft(const Word& a, int amount) {
  checkArg(amount >= 0, "negative shift");
  Word r;
  for (int i = 0; i < amount; ++i) r.push_back(zero());
  for (NodeId s : a) r.push_back(s);
  return r;
}

Word BitsliceBuilder::zeroExtend(const Word& a, int bits) {
  checkArg(static_cast<size_t>(bits) >= a.size(), "cannot shrink word");
  Word r = a;
  while (r.size() < static_cast<size_t>(bits)) r.push_back(zero());
  return r;
}

Word BitsliceBuilder::signExtend(const Word& a, int bits) {
  checkArg(!a.empty(), "sign extend of empty word");
  checkArg(static_cast<size_t>(bits) >= a.size(), "cannot shrink word");
  Word r = a;
  while (r.size() < static_cast<size_t>(bits)) r.push_back(a.back());
  return r;
}

NodeId BitsliceBuilder::greaterEqual(const Word& a, const Word& b) {
  auto [pa, pb] = aligned(a, b);
  // MSB-first serial compare: gt accumulates "already greater", eq tracks
  // "still equal".
  NodeId gt = zero();
  NodeId eq = one();
  for (size_t i = pa.size(); i-- > 0;) {
    NodeId nb = g_.addOp(OpKind::Not, {pb[i]});
    NodeId here = g_.addOp(OpKind::And, {pa[i], nb});
    NodeId gated = g_.addOp(OpKind::And, {eq, here});
    gt = g_.addOp(OpKind::Or, {gt, gated});
    NodeId same = g_.addOp(OpKind::Xnor, {pa[i], pb[i]});
    eq = g_.addOp(OpKind::And, {eq, same});
  }
  return g_.addOp(OpKind::Or, {gt, eq});
}

NodeId BitsliceBuilder::lessEqual(const Word& a, const Word& b) {
  return greaterEqual(b, a);
}

NodeId BitsliceBuilder::equal(const Word& a, const Word& b) {
  auto [pa, pb] = aligned(a, b);
  NodeId eq = one();
  for (size_t i = 0; i < pa.size(); ++i) {
    NodeId same = g_.addOp(OpKind::Xnor, {pa[i], pb[i]});
    eq = g_.addOp(OpKind::And, {eq, same});
  }
  return eq;
}

}  // namespace sherlock::workloads
