#ifndef MAD_UTIL_CRC32_H_
#define MAD_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mad {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// protecting every WAL record frame and checkpoint section of the
/// durability subsystem and every wire frame. Software slice-by-8: eight
/// table lookups per eight input bytes, the bytewise loop only for the
/// tail; dependency-free.
///
/// `seed` lets callers chain partial buffers:
///   Crc32(b, n) == Crc32(b + k, n - k, Crc32(b, k)).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace mad

#endif  // MAD_UTIL_CRC32_H_
