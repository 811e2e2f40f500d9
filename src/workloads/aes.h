// Bit-sliced AES-128 encryption kernel (paper Sec. 4 "Encryption",
// Usuba-style bitslicing): every bulk element is one 16-byte block; the
// 128 state bits arrive as slices, round keys are expanded on the host and
// fed as bit-sliced inputs, and the whole cipher becomes a bulk-bitwise
// DAG.
//
// SubBytes uses a composite-field (tower) implementation derived at graph
// construction time: GF(2^8) is decomposed as GF((2^4)^2), the isomorphism
// is found by root search against the AES polynomial, and inversion in the
// tower costs a handful of bit-sliced GF(2^4) multiplications. The
// resulting circuit is verified against the table S-box in the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/graph.h"

namespace sherlock::workloads {

struct AesSpec {
  /// Cipher rounds; 10 is full AES-128, smaller values give reduced-round
  /// variants for fast tests.
  int rounds = 10;
};

/// Builds the bit-sliced AES DAG. Inputs: "pt.k" (k in [0,128), plaintext
/// bit k = bit (k%8) of state byte (k/8), bytes in FIPS column-major
/// order) and "rk<r>.k" for r in [0, rounds]. Outputs: the 128 ciphertext
/// slices, in bit order.
ir::Graph buildAes(const AesSpec& spec = {});

/// Packs up to 64 blocks into bit-sliced input words for the "pt.*"
/// inputs (block b occupies bulk lane b).
std::map<std::string, uint64_t> packPlaintext(
    const std::vector<std::array<uint8_t, 16>>& blocks);

/// Packs the expanded round keys of `key` into "rk<r>.*" input words
/// (every bulk lane uses the same key).
std::map<std::string, uint64_t> packRoundKeys(
    const std::array<uint8_t, 16>& key, int rounds);

/// Extracts block `lane` from 128 output slice words (inverse of
/// packPlaintext's layout).
std::array<uint8_t, 16> unpackState(const std::vector<uint64_t>& slices,
                                    int lane);

}  // namespace sherlock::workloads
