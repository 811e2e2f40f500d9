#include "workloads/bitweaving.h"

#include "support/diagnostics.h"
#include "workloads/bitslice_builder.h"

namespace sherlock::workloads {

ir::Graph buildBitweaving(const BitweavingSpec& spec) {
  checkArg(spec.bits >= 1 && spec.bits <= 64, "bits must be in [1, 64]");
  checkArg(spec.segments >= 1, "segments must be >= 1");
  ir::Graph g;
  BitsliceBuilder b(g);

  Word c1 = b.input("c1", spec.bits);
  Word c2 = b.input("c2", spec.bits);
  for (int s = 0; s < spec.segments; ++s) {
    Word v = b.input(s == 0 ? "v" : strCat("v", s), spec.bits);
    // v >= c1 and v <= c2, both as MSB-first bit-serial scans (Fig. 3a).
    ir::NodeId ge = b.greaterEqual(v, c1);
    ir::NodeId le = b.lessEqual(v, c2);
    g.markOutput(g.addOp(ir::OpKind::And, {ge, le}));
  }
  return g;
}

std::string predicateName(Predicate p) {
  switch (p) {
    case Predicate::Lt: return "LT";
    case Predicate::Le: return "LE";
    case Predicate::Gt: return "GT";
    case Predicate::Ge: return "GE";
    case Predicate::Eq: return "EQ";
    case Predicate::Ne: return "NE";
    case Predicate::Between: return "BETWEEN";
  }
  throw InternalError("predicateName: invalid Predicate");
}

ir::Graph buildPredicateScan(const PredicateScanSpec& spec) {
  checkArg(spec.bits >= 1 && spec.bits <= 64, "bits must be in [1, 64]");
  checkArg(spec.segments >= 1, "segments must be >= 1");
  if (spec.predicate == Predicate::Between) {
    BitweavingSpec bw;
    bw.bits = spec.bits;
    bw.segments = spec.segments;
    return buildBitweaving(bw);
  }

  ir::Graph g;
  BitsliceBuilder b(g);
  Word c1 = b.input("c1", spec.bits);
  for (int s = 0; s < spec.segments; ++s) {
    Word v = b.input(s == 0 ? "v" : strCat("v", s), spec.bits);
    ir::NodeId result;
    switch (spec.predicate) {
      case Predicate::Lt:
        result = g.addOp(ir::OpKind::Not, {b.greaterEqual(v, c1)});
        break;
      case Predicate::Le:
        result = b.lessEqual(v, c1);
        break;
      case Predicate::Gt:
        result = g.addOp(ir::OpKind::Not, {b.lessEqual(v, c1)});
        break;
      case Predicate::Ge:
        result = b.greaterEqual(v, c1);
        break;
      case Predicate::Eq:
        result = b.equal(v, c1);
        break;
      case Predicate::Ne:
        result = g.addOp(ir::OpKind::Not, {b.equal(v, c1)});
        break;
      case Predicate::Between:
        throw InternalError("handled above");
    }
    g.markOutput(result);
  }
  return g;
}

bool predicateReference(Predicate p, uint64_t v, uint64_t c1, uint64_t c2,
                        int bits) {
  uint64_t mask = bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  v &= mask;
  c1 &= mask;
  c2 &= mask;
  switch (p) {
    case Predicate::Lt: return v < c1;
    case Predicate::Le: return v <= c1;
    case Predicate::Gt: return v > c1;
    case Predicate::Ge: return v >= c1;
    case Predicate::Eq: return v == c1;
    case Predicate::Ne: return v != c1;
    case Predicate::Between: return c1 <= v && v <= c2;
  }
  throw InternalError("predicateReference: invalid Predicate");
}

bool bitweavingReference(uint64_t v, uint64_t c1, uint64_t c2, int bits) {
  uint64_t mask = bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  v &= mask;
  c1 &= mask;
  c2 &= mask;
  return c1 <= v && v <= c2;
}

}  // namespace sherlock::workloads
