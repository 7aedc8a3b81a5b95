// CRC-64 (ECMA-182 polynomial) for checkpoint payload verification.
// The paper's optional restart feature: "after every checkpoint, a chunk
// data checksum is calculated and stored along with the chunk metadata.
// On restart, the checksum is recalculated and verified."
#pragma once

#include <cstddef>
#include <cstdint>

namespace nvmcp {

/// One-shot CRC-64 of a buffer.
std::uint64_t crc64(const void* data, std::size_t n);

/// Streaming form: crc64_update(crc64_init(), ...) chained over fragments
/// equals the one-shot value over the concatenation.
constexpr std::uint64_t crc64_init() { return ~0ULL; }
std::uint64_t crc64_update(std::uint64_t state, const void* data,
                           std::size_t n);
constexpr std::uint64_t crc64_final(std::uint64_t state) { return ~state; }

/// Advance a CRC state over `n` zero bytes without touching them:
/// crc64_shift(s, n) == crc64_update(s, zeros, n), computed as a multiply
/// by x^(8n) mod P through precomputed per-hex-digit operator tables
/// (at most eight 16-lookup steps for any n < 4 GiB).
///
/// CRC-64 is linear, so for equal-length A and B
///   crc64(A) ^ crc64(B) == crc64_update(0, A ^ B),
/// and a change to bytes [off, off+len) of an n-byte message moves its
/// checksum by crc64_shift(crc64_update(0, old) ^ crc64_update(0, new),
/// n - off - len). Incremental commits update a slot's checksum this way
/// from the bytes they overwrite alone.
std::uint64_t crc64_shift(std::uint64_t state, std::uint64_t n);

}  // namespace nvmcp
