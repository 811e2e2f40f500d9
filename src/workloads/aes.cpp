#include "workloads/aes.h"

#include <algorithm>

#include "support/diagnostics.h"
#include "workloads/aes_math.h"

namespace sherlock::workloads {

using ir::Graph;
using ir::NodeId;
using ir::OpKind;

namespace {

// ------------------------------------------------------------------------
// Host-side tower-field derivation: GF(2^8) ~= GF((2^4)^2).
// GF(2^4) = GF(2)[x]/(x^4 + x + 1); tower elements a*y + b are encoded as
// the byte (a << 4) | b with y^2 = y + lambda.
// ------------------------------------------------------------------------

uint8_t g16Mul(uint8_t a, uint8_t b) {
  uint8_t r = 0;
  for (int i = 0; i < 4; ++i) {
    if (b & 1) r ^= a;
    bool carry = a & 0x8;
    a = static_cast<uint8_t>((a << 1) & 0xf);
    if (carry) a ^= 0x3;  // x^4 = x + 1
    b >>= 1;
  }
  return r;
}

/// The tower structure: lambda, root of the AES polynomial, and the GF(2)
/// basis-change matrices (row i gives output bit i as an XOR of inputs).
struct Tower {
  uint8_t lambda = 0;
  std::array<uint8_t, 8> toTower{};          // AES bits -> tower bits
  std::array<uint8_t, 8> fromTowerAffine{};  // tower bits -> S-box bits
};

/// Row-mask matrix product: (a . b)(x) == a(b(x)).
std::array<uint8_t, 8> composeMatrices(const std::array<uint8_t, 8>& a,
                                       const std::array<uint8_t, 8>& b) {
  std::array<uint8_t, 8> out{};
  for (int i = 0; i < 8; ++i) {
    uint8_t row = 0;
    for (int k = 0; k < 8; ++k)
      if (a[static_cast<size_t>(i)] & (1 << k))
        row ^= b[static_cast<size_t>(k)];
    out[static_cast<size_t>(i)] = row;
  }
  return out;
}

uint8_t towerMul(uint8_t p, uint8_t q, uint8_t lambda) {
  uint8_t a = p >> 4, b = p & 0xf, c = q >> 4, d = q & 0xf;
  uint8_t ac = g16Mul(a, c);
  uint8_t hi = static_cast<uint8_t>(g16Mul(a, d) ^ g16Mul(b, c) ^ ac);
  uint8_t lo = static_cast<uint8_t>(g16Mul(b, d) ^ g16Mul(ac, lambda));
  return static_cast<uint8_t>((hi << 4) | lo);
}

uint8_t towerPow(uint8_t p, int e, uint8_t lambda) {
  uint8_t r = 1;
  while (e) {
    if (e & 1) r = towerMul(r, p, lambda);
    p = towerMul(p, p, lambda);
    e >>= 1;
  }
  return r;
}

/// Inverts a GF(2) 8x8 matrix via Gauss-Jordan elimination.
std::array<uint8_t, 8> invertMatrix(std::array<uint8_t, 8> m) {
  std::array<uint8_t, 8> inv{};
  for (int i = 0; i < 8; ++i) inv[static_cast<size_t>(i)] =
      static_cast<uint8_t>(1 << i);
  for (int col = 0; col < 8; ++col) {
    int pivot = -1;
    for (int row = col; row < 8 && pivot < 0; ++row)
      if (m[static_cast<size_t>(row)] & (1 << col)) pivot = row;
    checkArg(pivot >= 0, "singular basis-change matrix");
    std::swap(m[static_cast<size_t>(pivot)], m[static_cast<size_t>(col)]);
    std::swap(inv[static_cast<size_t>(pivot)],
              inv[static_cast<size_t>(col)]);
    for (int row = 0; row < 8; ++row) {
      if (row == col) continue;
      if (m[static_cast<size_t>(row)] & (1 << col)) {
        m[static_cast<size_t>(row)] ^= m[static_cast<size_t>(col)];
        inv[static_cast<size_t>(row)] ^= inv[static_cast<size_t>(col)];
      }
    }
  }
  return inv;
}

Tower deriveTower() {
  Tower t;
  // Lambda such that y^2 + y + lambda is irreducible over GF(2^4).
  for (uint8_t cand = 1; cand < 16 && t.lambda == 0; ++cand) {
    bool hasRoot = false;
    for (uint8_t v = 0; v < 16; ++v)
      if (static_cast<uint8_t>(g16Mul(v, v) ^ v ^ cand) == 0) hasRoot = true;
    if (!hasRoot) t.lambda = cand;
  }
  checkArg(t.lambda != 0, "no irreducible quadratic found");

  // Root of the AES polynomial x^8+x^4+x^3+x+1 in the tower field.
  uint8_t root = 0;
  for (int r = 2; r < 256 && root == 0; ++r) {
    uint8_t rv = static_cast<uint8_t>(r);
    uint8_t val = static_cast<uint8_t>(
        towerPow(rv, 8, t.lambda) ^ towerPow(rv, 4, t.lambda) ^
        towerPow(rv, 3, t.lambda) ^ rv ^ 1);
    if (val == 0) root = rv;
  }
  checkArg(root != 0, "AES polynomial has no root in the tower field");

  // Basis change: column i of the AES->tower matrix is root^i. Convert to
  // row-mask form (row j collects the j-th bit of each column).
  std::array<uint8_t, 8> columns{};
  for (int i = 0; i < 8; ++i)
    columns[static_cast<size_t>(i)] = towerPow(root, i, t.lambda);
  for (int rowBit = 0; rowBit < 8; ++rowBit) {
    uint8_t mask = 0;
    for (int colIdx = 0; colIdx < 8; ++colIdx)
      if (columns[static_cast<size_t>(colIdx)] & (1 << rowBit))
        mask |= static_cast<uint8_t>(1 << colIdx);
    t.toTower[static_cast<size_t>(rowBit)] = mask;
  }

  // Post matrix: AES affine layer composed with tower->AES basis change.
  std::array<uint8_t, 8> affine{};
  for (int i = 0; i < 8; ++i) {
    uint8_t mask = 0;
    for (int off : {0, 4, 5, 6, 7})
      mask |= static_cast<uint8_t>(1 << ((i + off) % 8));
    affine[static_cast<size_t>(i)] = mask;
  }
  t.fromTowerAffine = composeMatrices(affine, invertMatrix(t.toTower));
  return t;
}

// ------------------------------------------------------------------------
// Bit-sliced circuit emission.
// ------------------------------------------------------------------------

using Nib = std::array<NodeId, 4>;

class AesCircuit {
 public:
  AesCircuit(Graph& g, const Tower& tower) : g_(g), tower_(tower) {}

  NodeId zero() { return g_.addConst(false); }

  NodeId x2(NodeId a, NodeId b) { return g_.addOp(OpKind::Xor, {a, b}); }

  /// out bit i = XOR over inputs j selected by rows[i].
  std::array<NodeId, 8> applyMatrix(const std::array<uint8_t, 8>& rows,
                                    const std::array<NodeId, 8>& in) {
    std::array<NodeId, 8> out{};
    for (int i = 0; i < 8; ++i) {
      NodeId acc = ir::kInvalidNode;
      for (int j = 0; j < 8; ++j)
        if (rows[static_cast<size_t>(i)] & (1 << j))
          acc = acc == ir::kInvalidNode
                    ? in[static_cast<size_t>(j)]
                    : g_.addOp(OpKind::Xor, {acc, in[static_cast<size_t>(j)]});
      out[static_cast<size_t>(i)] = acc == ir::kInvalidNode ? zero() : acc;
    }
    return out;
  }

  /// Bit-sliced GF(2^4) multiply: 16 ANDs + XOR reduction mod x^4+x+1.
  Nib g16MulSlices(const Nib& a, const Nib& b) {
    NodeId p[7];
    for (int k = 0; k < 7; ++k) {
      NodeId acc = ir::kInvalidNode;
      for (int i = 0; i < 4; ++i) {
        int j = k - i;
        if (j < 0 || j > 3) continue;
        NodeId prod = g_.addOp(OpKind::And, {a[static_cast<size_t>(i)],
                                             b[static_cast<size_t>(j)]});
        acc = acc == ir::kInvalidNode ? prod
                                      : g_.addOp(OpKind::Xor, {acc, prod});
      }
      p[k] = acc;
    }
    // x^4 = x+1, x^5 = x^2+x, x^6 = x^3+x^2.
    return Nib{x2(p[0], p[4]), x2(x2(p[1], p[4]), p[5]),
               x2(x2(p[2], p[5]), p[6]), x2(p[3], p[6])};
  }

  /// Bit-sliced GF(2^4) square (linear).
  Nib g16SquareSlices(const Nib& a) {
    return Nib{x2(a[0], a[2]), a[2], x2(a[1], a[3]), a[3]};
  }

  /// Bit-sliced multiply by the constant lambda (linear).
  Nib g16MulLambdaSlices(const Nib& a) {
    Nib out{};
    for (int i = 0; i < 4; ++i) {
      NodeId acc = ir::kInvalidNode;
      for (int j = 0; j < 4; ++j) {
        uint8_t img = g16Mul(tower_.lambda, static_cast<uint8_t>(1 << j));
        if (img & (1 << i))
          acc = acc == ir::kInvalidNode
                    ? a[static_cast<size_t>(j)]
                    : g_.addOp(OpKind::Xor, {acc, a[static_cast<size_t>(j)]});
      }
      out[static_cast<size_t>(i)] = acc == ir::kInvalidNode ? zero() : acc;
    }
    return out;
  }

  /// GF(2^4) inversion: x^14 = x^8 * x^4 * x^2.
  Nib g16InvSlices(const Nib& a) {
    Nib s2 = g16SquareSlices(a);
    Nib s4 = g16SquareSlices(s2);
    Nib s8 = g16SquareSlices(s4);
    return g16MulSlices(g16MulSlices(s8, s4), s2);
  }

  Nib nibXor(const Nib& a, const Nib& b) {
    Nib out{};
    for (int i = 0; i < 4; ++i)
      out[static_cast<size_t>(i)] =
          x2(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)]);
    return out;
  }

  /// GF(2^8) inversion in the tower basis (input and output are tower
  /// bits; 0 maps to 0).
  std::array<NodeId, 8> towerInverse(const std::array<NodeId, 8>& t) {
    Nib b{t[0], t[1], t[2], t[3]};  // low tower nibble
    Nib a{t[4], t[5], t[6], t[7]};  // high tower nibble

    // (a y + b)^-1 = (a N^-1) y + (a + b) N^-1 with
    // N = lambda a^2 + a b + b^2.
    Nib asq = g16SquareSlices(a);
    Nib bsq = g16SquareSlices(b);
    Nib ab = g16MulSlices(a, b);
    Nib n = nibXor(nibXor(g16MulLambdaSlices(asq), ab), bsq);
    Nib ninv = g16InvSlices(n);
    Nib hi = g16MulSlices(a, ninv);
    Nib lo = g16MulSlices(nibXor(a, b), ninv);
    return {lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]};
  }

  /// The bit-sliced S-box on one byte worth of slices.
  std::array<NodeId, 8> sboxSlices(const std::array<NodeId, 8>& in) {
    auto inv = towerInverse(applyMatrix(tower_.toTower, in));
    auto out = applyMatrix(tower_.fromTowerAffine, inv);
    for (int i = 0; i < 8; ++i)
      if (0x63 & (1 << i))
        out[static_cast<size_t>(i)] =
            g_.addOp(OpKind::Not, {out[static_cast<size_t>(i)]});
    return out;
  }

 private:
  Graph& g_;
  const Tower& tower_;
};

/// State as 128 slices: index = byte * 8 + bit, bytes column-major.
using State = std::vector<NodeId>;

std::array<NodeId, 8> byteOf(const State& s, int byteIdx) {
  std::array<NodeId, 8> b{};
  for (int i = 0; i < 8; ++i)
    b[static_cast<size_t>(i)] = s[static_cast<size_t>(byteIdx * 8 + i)];
  return b;
}

void setByte(State& s, int byteIdx, const std::array<NodeId, 8>& b) {
  for (int i = 0; i < 8; ++i)
    s[static_cast<size_t>(byteIdx * 8 + i)] = b[static_cast<size_t>(i)];
}

}  // namespace

Graph buildAes(const AesSpec& spec) {
  checkArg(spec.rounds >= 1 && spec.rounds <= 10,
           "rounds must be in [1, 10]");
  Graph g;
  Tower tower = deriveTower();
  AesCircuit circuit(g, tower);

  State state(128);
  for (int k = 0; k < 128; ++k)
    state[static_cast<size_t>(k)] = g.addInput(strCat("pt.", k));

  auto roundKey = [&](int r) {
    State rk(128);
    for (int k = 0; k < 128; ++k)
      rk[static_cast<size_t>(k)] = g.addInput(strCat("rk", r, ".", k));
    return rk;
  };
  auto addRoundKey = [&](State& s, const State& rk) {
    for (int k = 0; k < 128; ++k)
      s[static_cast<size_t>(k)] = g.addOp(
          OpKind::Xor, {s[static_cast<size_t>(k)],
                        rk[static_cast<size_t>(k)]});
  };
  auto subBytes = [&](State& s) {
    for (int byteIdx = 0; byteIdx < 16; ++byteIdx)
      setByte(s, byteIdx, circuit.sboxSlices(byteOf(s, byteIdx)));
  };
  auto shiftRows = [&](State& s) {
    State t = s;
    for (int row = 0; row < 4; ++row)
      for (int col = 0; col < 4; ++col)
        setByte(s, 4 * col + row, byteOf(t, 4 * ((col + row) % 4) + row));
  };
  // xtime: multiply a byte's slices by 2 in the AES field.
  auto xtime = [&](const std::array<NodeId, 8>& b) {
    std::array<NodeId, 8> out{};
    NodeId msb = b[7];
    out[0] = msb;
    out[1] = circuit.x2(b[0], msb);
    out[2] = b[1];
    out[3] = circuit.x2(b[2], msb);
    out[4] = circuit.x2(b[3], msb);
    out[5] = b[4];
    out[6] = b[5];
    out[7] = b[6];
    return out;
  };
  auto xorBytes = [&](const std::array<NodeId, 8>& a,
                      const std::array<NodeId, 8>& b) {
    std::array<NodeId, 8> out{};
    for (int i = 0; i < 8; ++i)
      out[static_cast<size_t>(i)] =
          circuit.x2(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)]);
    return out;
  };
  auto mixColumns = [&](State& s) {
    for (int col = 0; col < 4; ++col) {
      auto a0 = byteOf(s, 4 * col + 0);
      auto a1 = byteOf(s, 4 * col + 1);
      auto a2 = byteOf(s, 4 * col + 2);
      auto a3 = byteOf(s, 4 * col + 3);
      auto all = xorBytes(xorBytes(a0, a1), xorBytes(a2, a3));
      setByte(s, 4 * col + 0,
              xorBytes(a0, xorBytes(all, xtime(xorBytes(a0, a1)))));
      setByte(s, 4 * col + 1,
              xorBytes(a1, xorBytes(all, xtime(xorBytes(a1, a2)))));
      setByte(s, 4 * col + 2,
              xorBytes(a2, xorBytes(all, xtime(xorBytes(a2, a3)))));
      setByte(s, 4 * col + 3,
              xorBytes(a3, xorBytes(all, xtime(xorBytes(a3, a0)))));
    }
  };

  addRoundKey(state, roundKey(0));
  for (int r = 1; r < spec.rounds; ++r) {
    subBytes(state);
    shiftRows(state);
    mixColumns(state);
    addRoundKey(state, roundKey(r));
  }
  subBytes(state);
  shiftRows(state);
  addRoundKey(state, roundKey(spec.rounds));

  for (NodeId s : state) g.markOutput(s);
  return g;
}

std::map<std::string, uint64_t> packPlaintext(
    const std::vector<std::array<uint8_t, 16>>& blocks) {
  checkArg(blocks.size() <= 64, "at most 64 blocks per bulk word");
  std::map<std::string, uint64_t> inputs;
  for (int k = 0; k < 128; ++k) {
    uint64_t word = 0;
    for (size_t lane = 0; lane < blocks.size(); ++lane) {
      uint8_t byte = blocks[lane][static_cast<size_t>(k / 8)];
      if ((byte >> (k % 8)) & 1) word |= uint64_t{1} << lane;
    }
    inputs[strCat("pt.", k)] = word;
  }
  return inputs;
}

std::map<std::string, uint64_t> packRoundKeys(
    const std::array<uint8_t, 16>& key, int rounds) {
  auto rks = aes::expandKey(key);
  std::map<std::string, uint64_t> inputs;
  for (int r = 0; r <= rounds; ++r)
    for (int k = 0; k < 128; ++k) {
      uint8_t byte = rks[static_cast<size_t>(r)][static_cast<size_t>(k / 8)];
      inputs[strCat("rk", r, ".", k)] =
          ((byte >> (k % 8)) & 1) ? ~uint64_t{0} : 0;
    }
  return inputs;
}

std::array<uint8_t, 16> unpackState(const std::vector<uint64_t>& slices,
                                    int lane) {
  checkArg(slices.size() == 128, "expected 128 slices");
  std::array<uint8_t, 16> out{};
  for (int k = 0; k < 128; ++k)
    if ((slices[static_cast<size_t>(k)] >> lane) & 1)
      out[static_cast<size_t>(k / 8)] |=
          static_cast<uint8_t>(1 << (k % 8));
  return out;
}

}  // namespace sherlock::workloads
