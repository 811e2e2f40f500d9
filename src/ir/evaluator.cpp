#include "ir/evaluator.h"

namespace sherlock::ir {

std::vector<BitVector> evaluateAll(const Graph& g,
                                   const InputValues& inputs) {
  size_t width = 0;
  for (const auto& [name, value] : inputs) {
    if (width == 0) width = value.size();
    checkArg(value.size() == width,
             "input '", name, "' width ", value.size(),
             " differs from ", width);
  }
  checkArg(width > 0 || g.inputCount() == 0, "no input values provided");
  if (width == 0) width = 1;  // constant-only graphs

  std::vector<BitVector> values(g.numNodes());
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    switch (n.kind) {
      case Node::Kind::Input: {
        auto it = inputs.find(n.name);
        checkArg(it != inputs.end(),
                 "missing value for input '", n.name, "'");
        values[static_cast<size_t>(i)] = it->second;
        break;
      }
      case Node::Kind::Const:
        values[static_cast<size_t>(i)] = BitVector(width, n.constValue);
        break;
      case Node::Kind::Op: {
        const auto& ops = n.operands;
        BitVector acc = values[static_cast<size_t>(ops[0])];
        switch (n.op) {
          case OpKind::Not:
            acc = ~acc;
            break;
          case OpKind::Copy:
            break;
          case OpKind::And:
          case OpKind::Nand:
            for (size_t k = 1; k < ops.size(); ++k)
              acc &= values[static_cast<size_t>(ops[k])];
            if (n.op == OpKind::Nand) acc = ~acc;
            break;
          case OpKind::Or:
          case OpKind::Nor:
            for (size_t k = 1; k < ops.size(); ++k)
              acc |= values[static_cast<size_t>(ops[k])];
            if (n.op == OpKind::Nor) acc = ~acc;
            break;
          case OpKind::Xor:
          case OpKind::Xnor:
            for (size_t k = 1; k < ops.size(); ++k)
              acc ^= values[static_cast<size_t>(ops[k])];
            if (n.op == OpKind::Xnor) acc = ~acc;
            break;
        }
        values[static_cast<size_t>(i)] = std::move(acc);
        break;
      }
    }
  }
  return values;
}

std::vector<BitVector> evaluateOutputs(const Graph& g,
                                       const InputValues& inputs) {
  auto all = evaluateAll(g, inputs);
  std::vector<BitVector> outs;
  outs.reserve(g.outputs().size());
  for (NodeId id : g.outputs()) outs.push_back(all[static_cast<size_t>(id)]);
  return outs;
}

std::vector<uint64_t> evaluateAllWords(
    const Graph& g, const std::map<std::string, uint64_t>& inputs) {
  InputValues vals;
  for (const auto& [name, word] : inputs)
    vals.emplace(name, BitVector::fromUint64(word, 64));
  auto all = evaluateAll(g, vals);
  std::vector<uint64_t> words(all.size());
  for (size_t i = 0; i < all.size(); ++i) words[i] = all[i].toUint64();
  return words;
}

std::vector<uint64_t> evaluateAllWordsPacked(
    const Graph& g,
    const std::map<std::string, std::vector<uint64_t>>& inputs,
    int laneWords) {
  checkArg(laneWords >= 1, "laneWords must be >= 1");
  const size_t W = static_cast<size_t>(laneWords);
  std::vector<uint64_t> values(g.numNodes() * W, 0);
  std::vector<const uint64_t*> ptrs;
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    uint64_t* out = values.data() + static_cast<size_t>(i) * W;
    switch (n.kind) {
      case Node::Kind::Input: {
        auto it = inputs.find(n.name);
        checkArg(it != inputs.end(),
                 "missing value for input '", n.name, "'");
        checkArg(it->second.size() == W,
                 "input '", n.name, "' has ", it->second.size(),
                 " words, expected ", W);
        for (size_t w = 0; w < W; ++w) out[w] = it->second[w];
        break;
      }
      case Node::Kind::Const:
        if (n.constValue)
          for (size_t w = 0; w < W; ++w) out[w] = ~uint64_t{0};
        break;
      case Node::Kind::Op: {
        ptrs.clear();
        for (NodeId op : n.operands)
          ptrs.push_back(values.data() + static_cast<size_t>(op) * W);
        evalOpWide(n.op, ptrs.data(), ptrs.size(), W, out);
        break;
      }
    }
  }
  return values;
}

}  // namespace sherlock::ir
