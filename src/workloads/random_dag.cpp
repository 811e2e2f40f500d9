#include "workloads/random_dag.h"

#include <algorithm>
#include <vector>

#include "support/diagnostics.h"
#include "support/rng.h"

namespace sherlock::workloads {

using ir::NodeId;
using ir::OpKind;

ir::Graph buildRandomDag(const RandomDagSpec& spec) {
  checkArg(spec.inputs >= 1, "need at least one input");
  checkArg(spec.ops >= 1, "need at least one op");
  checkArg(spec.maxArity >= 2, "maxArity must be >= 2");
  checkArg(spec.locality > 0.0 && spec.locality <= 1.0,
           "locality must be in (0, 1]");

  Rng rng(spec.seed);
  ir::Graph g;
  // The sampler draws from the earlier requests, not from graph nodes:
  // the graph may answer two requests with one node (folding, sharing),
  // and the random stream must not depend on that.
  std::vector<NodeId> pool;    // node answering each request
  std::vector<bool> consumed;  // a later op request used it
  for (int i = 0; i < spec.inputs; ++i)
    pool.push_back(g.addInput(strCat("in", i)));
  consumed.assign(pool.size(), false);

  std::vector<OpKind> mix{OpKind::And, OpKind::Or, OpKind::Nand,
                          OpKind::Nor};
  if (spec.useXor) {
    mix.push_back(OpKind::Xor);
    mix.push_back(OpKind::Xnor);
  }

  auto pick = [&]() {
    size_t window = std::max<size_t>(
        2, static_cast<size_t>(spec.locality *
                               static_cast<double>(pool.size())));
    size_t lo = pool.size() - window;
    return lo + static_cast<size_t>(rng.below(window));
  };
  auto request = [&](OpKind op, const std::vector<size_t>& picks) {
    std::vector<NodeId> operands;
    for (size_t k : picks) {
      operands.push_back(pool[k]);
      consumed[k] = true;
    }
    pool.push_back(g.addOp(op, std::move(operands)));
    consumed.push_back(false);
  };

  for (int i = 0; i < spec.ops; ++i) {
    if (rng.chance(spec.notProbability)) {
      request(OpKind::Not, {pick()});
      continue;
    }
    int arity = static_cast<int>(rng.range(2, spec.maxArity));
    std::vector<size_t> picks;
    // The locality window may hold fewer requests than the sampled
    // arity; bound the attempts and keep whatever was collected.
    for (int attempt = 0;
         attempt < 8 * arity && static_cast<int>(picks.size()) < arity;
         ++attempt) {
      size_t cand = pick();
      if (std::find(picks.begin(), picks.end(), cand) == picks.end())
        picks.push_back(cand);
    }
    if (static_cast<int>(picks.size()) < 2) continue;
    request(mix[static_cast<size_t>(rng.below(mix.size()))], picks);
  }

  // Every op request no later request consumed becomes an output (keeps
  // the whole DAG live).
  for (size_t k = static_cast<size_t>(spec.inputs); k < pool.size(); ++k)
    if (!consumed[k]) g.markOutput(pool[k]);
  return g;
}

}  // namespace sherlock::workloads
