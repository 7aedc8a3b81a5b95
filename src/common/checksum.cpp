#include "common/checksum.hpp"

#include <array>
#include <cstring>
#include <memory>

namespace nvmcp {
namespace {

constexpr std::uint64_t kPoly = 0x42F0E1EBA9EA3693ULL;  // ECMA-182

// Slice-by-16 tables: table[0] is the classic byte table; table[k] rolls a
// byte through k additional zero bytes, letting the hot loop fold 16 input
// bytes per iteration (checksums sit on the checkpoint critical path, and
// since the fused write path computes them inline with the copy, CRC
// throughput bounds the unthrottled checkpoint rate).
using SliceTables = std::array<std::array<std::uint64_t, 256>, 16>;

SliceTables build_tables() {
  SliceTables t{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i << 56;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & (1ULL << 63)) ? (crc << 1) ^ kPoly : crc << 1;
    }
    t[0][static_cast<std::size_t>(i)] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t prev = t[k - 1][i];
      t[k][i] = (prev << 8) ^ t[0][static_cast<std::size_t>(prev >> 56)];
    }
  }
  return t;
}

const SliceTables& tables() {
  static const SliceTables t = build_tables();
  return t;
}

// Shift operators. A state is a polynomial over GF(2) of degree < 64 (bit
// i = coefficient of x^i); feeding one zero byte multiplies it by x^8 mod
// P. ShiftOp multiplies by a fixed constant c: nib[i][v] holds
// (v * x^(4i)) * c mod P, so a product is the XOR of 16 nibble lookups.
struct ShiftOp {
  std::array<std::array<std::uint64_t, 16>, 16> nib;

  std::uint64_t apply(std::uint64_t s) const {
    std::uint64_t r = 0;
    for (std::size_t i = 0; i < 16; ++i) r ^= nib[i][(s >> (4 * i)) & 0xf];
    return r;
  }
};

// ops[j][d - 1] multiplies by x^(8 * d * 16^j): one operator per nonzero
// hex digit d at position j of the byte count, for counts below 2^32.
constexpr std::size_t kShiftDigits = 8;
constexpr std::uint64_t kMaxTableShift = (1ULL << (4 * kShiftDigits)) - 1;
using ShiftTables = std::array<std::array<ShiftOp, 15>, kShiftDigits>;

ShiftOp make_shift_op(std::uint64_t c) {
  ShiftOp op{};
  std::uint64_t basis = c;  // x^k * c mod P, k = 4i .. 4i+3
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint64_t b[4];
    for (std::uint64_t& bk : b) {
      bk = basis;
      basis = (basis << 1) ^ ((basis >> 63) ? kPoly : 0);
    }
    for (std::size_t v = 0; v < 16; ++v) {
      std::uint64_t e = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        if ((v >> k) & 1) e ^= b[k];
      }
      op.nib[i][v] = e;
    }
  }
  return op;
}

std::unique_ptr<ShiftTables> build_shift_tables() {
  auto t = std::make_unique<ShiftTables>();
  std::uint64_t unit = 1ULL << 8;  // x^8: one zero byte
  for (std::size_t j = 0; j < kShiftDigits; ++j) {
    std::uint64_t c = unit;  // x^(8 * d * 16^j) for d = 1..15
    (*t)[j][0] = make_shift_op(c);
    for (std::size_t d = 1; d < 15; ++d) {
      c = (*t)[j][0].apply(c);
      (*t)[j][d] = make_shift_op(c);
    }
    unit = (*t)[j][0].apply(c);  // x^(8 * 16^(j+1))
  }
  return t;
}

const ShiftTables& shift_tables() {
  static const std::unique_ptr<ShiftTables> t = build_shift_tables();
  return *t;
}

std::uint64_t shift_below_table_limit(std::uint64_t state, std::uint64_t n) {
  const ShiftTables& t = shift_tables();
  for (std::size_t j = 0; n != 0; ++j, n >>= 4) {
    const std::size_t d = n & 0xf;
    if (d) state = t[j][d - 1].apply(state);
  }
  return state;
}

}  // namespace

std::uint64_t crc64_shift(std::uint64_t state, std::uint64_t n) {
  // Counts past the tables (>= 4 GiB, larger than any chunk) take
  // table-sized steps.
  while (n > kMaxTableShift) {
    state = shift_below_table_limit(state, kMaxTableShift);
    n -= kMaxTableShift;
  }
  return shift_below_table_limit(state, n);
}

std::uint64_t crc64_update(std::uint64_t state, const void* data,
                           std::size_t n) {
  const SliceTables& t = tables();
  const auto* p = static_cast<const unsigned char*>(data);

  while (n >= 16) {
    std::uint64_t w0, w1;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    // First word folds through the state (its bytes roll through 15..8
    // further input bytes); second word's bytes roll through 7..0.
    const std::uint64_t x = state ^ __builtin_bswap64(w0);
    const std::uint64_t y = __builtin_bswap64(w1);
    state = t[15][(x >> 56) & 0xff] ^ t[14][(x >> 48) & 0xff] ^
            t[13][(x >> 40) & 0xff] ^ t[12][(x >> 32) & 0xff] ^
            t[11][(x >> 24) & 0xff] ^ t[10][(x >> 16) & 0xff] ^
            t[9][(x >> 8) & 0xff] ^ t[8][x & 0xff] ^
            t[7][(y >> 56) & 0xff] ^ t[6][(y >> 48) & 0xff] ^
            t[5][(y >> 40) & 0xff] ^ t[4][(y >> 32) & 0xff] ^
            t[3][(y >> 24) & 0xff] ^ t[2][(y >> 16) & 0xff] ^
            t[1][(y >> 8) & 0xff] ^ t[0][y & 0xff];
    p += 16;
    n -= 16;
  }
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold: the high state byte pairs with the first input
    // byte (the MSB-first bit order of ECMA-182 over the state).
    state ^= __builtin_bswap64(word);
    state = t[7][(state >> 56) & 0xff] ^ t[6][(state >> 48) & 0xff] ^
            t[5][(state >> 40) & 0xff] ^ t[4][(state >> 32) & 0xff] ^
            t[3][(state >> 24) & 0xff] ^ t[2][(state >> 16) & 0xff] ^
            t[1][(state >> 8) & 0xff] ^ t[0][state & 0xff];
    p += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    state =
        (state << 8) ^
        t[0][static_cast<std::size_t>((state >> 56) ^ p[i])];
  }
  return state;
}

std::uint64_t crc64(const void* data, std::size_t n) {
  return crc64_final(crc64_update(crc64_init(), data, n));
}

}  // namespace nvmcp
