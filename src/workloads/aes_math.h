// Host-side AES-128 reference arithmetic: GF(2^8) field operations, the
// S-box, key expansion, and block encryption. Used (a) as ground truth for
// the bit-sliced circuit and (b) to precompute round keys, which enter the
// CIM kernel as bit-sliced inputs (key expansion runs on the host, as is
// standard for in-memory AES accelerators).
#pragma once

#include <array>
#include <cstdint>

namespace sherlock::workloads::aes {

/// Multiplication in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
uint8_t gfMul(uint8_t a, uint8_t b);

/// Multiplicative inverse in the AES field; gfInv(0) == 0 by convention.
uint8_t gfInv(uint8_t a);

/// The AES S-box: affine(gfInv(x)).
uint8_t sbox(uint8_t x);

/// AES-128 key expansion: 11 round keys of 16 bytes.
std::array<std::array<uint8_t, 16>, 11> expandKey(
    const std::array<uint8_t, 16>& key);

/// Reference AES-128 block encryption (optionally reduced rounds, for
/// circuit tests; rounds in [1, 10], 10 = full AES).
std::array<uint8_t, 16> encryptBlock(const std::array<uint8_t, 16>& plain,
                                     const std::array<uint8_t, 16>& key,
                                     int rounds = 10);

}  // namespace sherlock::workloads::aes
