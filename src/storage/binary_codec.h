#ifndef MAD_STORAGE_BINARY_CODEC_H_
#define MAD_STORAGE_BINARY_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/value.h"
#include "storage/database.h"
#include "util/result.h"

namespace mad {

/// Little-endian, bounds-checked byte encoding shared by the binary
/// checkpoint codec and the write-ahead log (wal.h). Integers use LEB128
/// varints (signed values zig-zag encoded), doubles their raw IEEE-754 bit
/// pattern — so non-finite values and -0.0 round-trip bit-identically —
/// and strings a varint length prefix.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutVarint(uint64_t v);
  void PutZigzag(int64_t v);
  void PutString(std::string_view s);
  void PutValue(const Value& v);

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Cursor over an immutable byte buffer. Every getter is bounds-checked and
/// returns a Status/Result instead of reading out of range — corrupted or
/// hostile input must yield a clean error, never UB (the serializer fuzz
/// test pins this down under ASan/UBSan).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetFixed32();
  Result<uint64_t> GetFixed64();
  Result<uint64_t> GetVarint();
  Result<int64_t> GetZigzag();
  Result<std::string> GetString();
  Result<Value> GetValue();
  /// The next `n` raw bytes (a view into the underlying buffer).
  Result<std::string_view> GetBytes(size_t n);

  size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }
  size_t position() const { return pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Binary database checkpoints: the one database image format, written by
/// checkpoints, `CloneDatabase` and the shell's `\save`. Compact and
/// CRC32-protected:
///
///   magic "MADB", u32 version
///   section*   where section = [u8 tag][u32 payload-len][u32 crc32][payload]
///
/// Sections appear in fixed order — meta (database name, atom-id counter),
/// schema (atom-type + link-type definitions), atoms, links, indexes — and
/// are terminated by an empty `end` section. Every payload is covered by
/// its CRC, so torn or bit-flipped checkpoints are detected, not loaded.
///
/// Serialization is deterministic: types in definition order, atoms in
/// insertion order, links in storage order. Re-serializing a deserialized
/// database yields bit-identical output, which the crash-recovery tests use
/// to prove state equivalence.
///
/// Returns ConstraintViolation while `db` has an open transaction: the head
/// holds its uncommitted versions. Callers that share `db` with writers hold
/// its reader lock, so none can begin writing while the image is taken.
Result<std::string> SerializeDatabaseBinary(const Database& db);

/// Reads a checkpoint produced by SerializeDatabaseBinary. Trailing bytes
/// after the end section are an error; any CRC mismatch, truncation, or
/// malformed payload yields a ParseError.
Result<std::unique_ptr<Database>> DeserializeDatabaseBinary(
    std::string_view bytes);

/// Deep copy of a database — atom ids, occurrences, index definitions, and
/// the atom-id counter included — as a round trip through the checkpoint
/// image.
Result<std::unique_ptr<Database>> CloneDatabase(const Database& db);

}  // namespace mad

#endif  // MAD_STORAGE_BINARY_CODEC_H_
