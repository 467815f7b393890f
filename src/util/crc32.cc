#include "util/crc32.h"

#include <array>

namespace mad {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight table lookups advance the
/// register over eight input bytes at once.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

/// Little-endian load, whatever the host order.
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = crc ^ Load32(bytes);
    const uint32_t hi = Load32(bytes + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace mad
