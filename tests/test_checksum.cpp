#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"

namespace nvmcp {
namespace {

TEST(Crc64, EmptyInput) {
  EXPECT_EQ(crc64(nullptr, 0), crc64("", 0));
}

TEST(Crc64, DeterministicAndSensitive) {
  const std::string a = "checkpoint payload";
  const std::string b = "checkpoint payloae";  // one byte differs
  EXPECT_EQ(crc64(a.data(), a.size()), crc64(a.data(), a.size()));
  EXPECT_NE(crc64(a.data(), a.size()), crc64(b.data(), b.size()));
}

TEST(Crc64, SingleBitFlipDetected) {
  std::vector<unsigned char> buf(4096, 0xA5);
  const std::uint64_t ref = crc64(buf.data(), buf.size());
  for (std::size_t pos : {std::size_t{0}, std::size_t{2047},
                          std::size_t{4095}}) {
    buf[pos] ^= 0x01;
    EXPECT_NE(crc64(buf.data(), buf.size()), ref);
    buf[pos] ^= 0x01;
  }
  EXPECT_EQ(crc64(buf.data(), buf.size()), ref);
}

TEST(Crc64, StreamingMatchesOneShot) {
  std::vector<unsigned char> buf(10000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  const std::uint64_t oneshot = crc64(buf.data(), buf.size());

  std::uint64_t state = crc64_init();
  std::size_t off = 0;
  const std::size_t steps[] = {1, 10, 100, 1000, 8889};
  for (std::size_t s : steps) {
    state = crc64_update(state, buf.data() + off, s);
    off += s;
  }
  ASSERT_EQ(off, buf.size());
  EXPECT_EQ(crc64_final(state), oneshot);
}

TEST(Crc64, LengthSensitive) {
  std::vector<unsigned char> buf(128, 0);
  EXPECT_NE(crc64(buf.data(), 64), crc64(buf.data(), 128));
}

TEST(Crc64, ShiftEqualsFeedingZeros) {
  const std::vector<unsigned char> zeros((1 << 20) + 64, 0);
  Rng rng(7);
  for (const std::uint64_t n :
       {0ULL, 1ULL, 2ULL, 7ULL, 8ULL, 15ULL, 16ULL, 17ULL, 255ULL, 256ULL,
        4095ULL, 4096ULL, 65537ULL, (1ULL << 20) + 63}) {
    for (int rep = 0; rep < 4; ++rep) {
      const std::uint64_t s = rep == 0 ? crc64_init() : rng.next_u64();
      EXPECT_EQ(crc64_shift(s, n), crc64_update(s, zeros.data(), n))
          << "n=" << n << " state=" << s;
    }
  }
}

TEST(Crc64, ShiftComposesPastTheTableRange) {
  Rng rng(11);
  for (const std::uint64_t a : {1ULL, 4096ULL, (1ULL << 32) - 1}) {
    for (const std::uint64_t b : {3ULL, 1ULL << 31, (1ULL << 32) + 5}) {
      const std::uint64_t s = rng.next_u64();
      EXPECT_EQ(crc64_shift(crc64_shift(s, a), b), crc64_shift(s, a + b))
          << "a=" << a << " b=" << b;
    }
  }
}

// The incremental-commit identity: overwrite a few ranges of a buffer and
// update its checksum from the overwritten bytes alone.
TEST(Crc64, LinearUpdateFromOverwrittenBytes) {
  Rng rng(13);
  std::vector<unsigned char> buf(64 * 1024);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  std::uint64_t sum = crc64(buf.data(), buf.size());
  for (int round = 0; round < 20; ++round) {
    std::uint64_t acc = 0;  // delta state at offset `pos`
    std::uint64_t pos = 0;
    std::uint64_t off = rng.next_below(512);
    while (off < buf.size()) {
      const std::uint64_t len =
          std::min<std::uint64_t>(1 + rng.next_below(300), buf.size() - off);
      std::uint64_t delta = crc64_update(crc64_shift(acc, off - pos),
                                         buf.data() + off, len);
      for (std::uint64_t i = off; i < off + len; ++i) {
        buf[i] = static_cast<unsigned char>(rng.next_u64());
      }
      acc = delta ^ crc64_update(0, buf.data() + off, len);
      pos = off + len;
      off = pos + rng.next_below(8000);
    }
    sum ^= crc64_shift(acc, buf.size() - pos);
    ASSERT_EQ(sum, crc64(buf.data(), buf.size())) << "round " << round;
  }
}

}  // namespace
}  // namespace nvmcp
