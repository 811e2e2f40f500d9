#include "workloads/aes_math.h"

#include "support/diagnostics.h"

namespace sherlock::workloads::aes {

uint8_t gfMul(uint8_t a, uint8_t b) {
  uint8_t r = 0;
  while (b) {
    if (b & 1) r ^= a;
    bool carry = a & 0x80;
    a = static_cast<uint8_t>(a << 1);
    if (carry) a ^= 0x1b;
    b >>= 1;
  }
  return r;
}

uint8_t gfInv(uint8_t a) {
  if (a == 0) return 0;
  // a^254 via square-and-multiply.
  uint8_t result = 1;
  uint8_t base = a;
  int e = 254;
  while (e) {
    if (e & 1) result = gfMul(result, base);
    base = gfMul(base, base);
    e >>= 1;
  }
  return result;
}

uint8_t sbox(uint8_t x) {
  uint8_t v = gfInv(x);
  uint8_t r = 0;
  for (int i = 0; i < 8; ++i) {
    int bit = ((v >> i) ^ (v >> ((i + 4) % 8)) ^ (v >> ((i + 5) % 8)) ^
               (v >> ((i + 6) % 8)) ^ (v >> ((i + 7) % 8))) &
              1;
    r |= static_cast<uint8_t>(bit << i);
  }
  return r ^ 0x63;
}

std::array<std::array<uint8_t, 16>, 11> expandKey(
    const std::array<uint8_t, 16>& key) {
  std::array<std::array<uint8_t, 16>, 11> roundKeys;
  // Words w[0..43], 4 bytes each.
  uint8_t w[44][4];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      w[i][j] = key[static_cast<size_t>(4 * i + j)];
  uint8_t rcon = 1;
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    for (int j = 0; j < 4; ++j) temp[j] = w[i - 1][j];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(sbox(temp[1]) ^ rcon);
      temp[1] = sbox(temp[2]);
      temp[2] = sbox(temp[3]);
      temp[3] = sbox(t0);
      rcon = gfMul(rcon, 2);
    }
    for (int j = 0; j < 4; ++j)
      w[i][j] = static_cast<uint8_t>(w[i - 4][j] ^ temp[j]);
  }
  for (int r = 0; r < 11; ++r)
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        roundKeys[static_cast<size_t>(r)][static_cast<size_t>(4 * i + j)] =
            w[4 * r + i][j];
  return roundKeys;
}

namespace {

void addRoundKey(std::array<uint8_t, 16>& s,
                 const std::array<uint8_t, 16>& rk) {
  for (size_t i = 0; i < 16; ++i) s[i] ^= rk[i];
}

void subBytes(std::array<uint8_t, 16>& s) {
  for (auto& b : s) b = sbox(b);
}

void shiftRows(std::array<uint8_t, 16>& s) {
  // State layout: s[4*col + row] (column-major FIPS-197 order).
  std::array<uint8_t, 16> t = s;
  for (int row = 0; row < 4; ++row)
    for (int col = 0; col < 4; ++col)
      s[static_cast<size_t>(4 * col + row)] =
          t[static_cast<size_t>(4 * ((col + row) % 4) + row)];
}

void mixColumns(std::array<uint8_t, 16>& s) {
  for (int col = 0; col < 4; ++col) {
    uint8_t* c = &s[static_cast<size_t>(4 * col)];
    uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
    c[0] = static_cast<uint8_t>(gfMul(a0, 2) ^ gfMul(a1, 3) ^ a2 ^ a3);
    c[1] = static_cast<uint8_t>(a0 ^ gfMul(a1, 2) ^ gfMul(a2, 3) ^ a3);
    c[2] = static_cast<uint8_t>(a0 ^ a1 ^ gfMul(a2, 2) ^ gfMul(a3, 3));
    c[3] = static_cast<uint8_t>(gfMul(a0, 3) ^ a1 ^ a2 ^ gfMul(a3, 2));
  }
}

}  // namespace

std::array<uint8_t, 16> encryptBlock(const std::array<uint8_t, 16>& plain,
                                     const std::array<uint8_t, 16>& key,
                                     int rounds) {
  checkArg(rounds >= 1 && rounds <= 10, "rounds must be in [1, 10]");
  auto rk = expandKey(key);
  std::array<uint8_t, 16> s = plain;
  addRoundKey(s, rk[0]);
  for (int r = 1; r < rounds; ++r) {
    subBytes(s);
    shiftRows(s);
    mixColumns(s);
    addRoundKey(s, rk[static_cast<size_t>(r)]);
  }
  subBytes(s);
  shiftRows(s);
  addRoundKey(s, rk[static_cast<size_t>(rounds)]);
  return s;
}

}  // namespace sherlock::workloads::aes
