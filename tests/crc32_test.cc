// Crc32 guards every WAL record, checkpoint section and wire frame, so its
// output is part of the on-disk and on-wire formats: the slice-by-8 loop
// must return exactly what the bytewise definition does, for any length,
// alignment and chaining split.

#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mad {
namespace {

/// The definition: one bit at a time, reflected polynomial 0xEDB88320.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string(32, '\0')), 0x190A55ADu);
  EXPECT_EQ(Crc32(std::string(32, '\xff')), 0xFF6CAB0Bu);
}

TEST(Crc32Test, ChainingHoldsAtEverySplit) {
  const std::vector<unsigned char> buf = RandomBytes(1024, 7);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t k = 0; k <= buf.size(); ++k) {
    ASSERT_EQ(Crc32(buf.data() + k, buf.size() - k, Crc32(buf.data(), k)),
              whole)
        << "split at " << k;
  }
}

TEST(Crc32Test, EveryShortLengthAtEveryAlignmentMatchesTheDefinition) {
  const std::vector<unsigned char> buf = RandomBytes(64 + 8, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(Crc32(buf.data() + offset, length, seed),
                  BitwiseCrc32(buf.data() + offset, length, seed))
            << "offset " << offset << ", length " << length << ", seed "
            << seed;
      }
    }
  }
}

TEST(Crc32Test, LongBuffersMatchTheDefinition) {
  for (size_t length : {1000u, 4096u, 24577u}) {
    const std::vector<unsigned char> buf = RandomBytes(length, length);
    EXPECT_EQ(Crc32(buf.data(), buf.size()),
              BitwiseCrc32(buf.data(), buf.size(), 0))
        << length;
  }
}

}  // namespace
}  // namespace mad
