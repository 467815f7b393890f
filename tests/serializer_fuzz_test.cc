// Property test: no byte-level corruption of a checkpoint image or a WAL
// may ever crash the readers or invoke UB; they must either parse
// successfully or return a clean error Status. Run under MAD_SANITIZE
// (ASan/UBSan) this pins the "never crash on hostile input" contract down.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "fuzz_rounds.h"
#include "storage/binary_codec.h"
#include "storage/wal.h"
#include "workload/geo.h"

namespace mad {
namespace {

/// Deterministic seed: the fuzz corpus is reproducible run to run.
constexpr uint32_t kSeed = 0xC0FFEE;

std::string BuildBinaryImage() {
  Database db("GEO_DB");
  EXPECT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  EXPECT_TRUE(db.CreateIndex("state", "name").ok());
  auto bytes = SerializeDatabaseBinary(db);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// Applies `mutations` random byte edits (overwrite, insert, or erase).
std::string Mutate(const std::string& image, std::mt19937& rng,
                   int mutations) {
  std::string out = image;
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int i = 0; i < mutations && !out.empty(); ++i) {
    std::uniform_int_distribution<size_t> pos(0, out.size() - 1);
    switch (op(rng)) {
      case 0:
        out[pos(rng)] = static_cast<char>(byte(rng));
        break;
      case 1:
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos(rng)),
                   static_cast<char>(byte(rng)));
        break;
      case 2:
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos(rng)));
        break;
    }
  }
  return out;
}

TEST(SerializerFuzzTest, BinaryReaderNeverCrashesOnMutatedInput) {
  const std::string image = BuildBinaryImage();
  std::mt19937 rng(kSeed ^ 1);
  std::uniform_int_distribution<int> mutation_count(1, 16);
  const int rounds = testing::FuzzRounds(2000);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = Mutate(image, rng, mutation_count(rng));
    auto result = DeserializeDatabaseBinary(mutated);
    if (result.ok()) {
      EXPECT_TRUE((*result)->CheckConsistency().ok());
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(SerializerFuzzTest, BinaryReaderNeverCrashesOnRandomNoise) {
  std::mt19937 rng(kSeed ^ 2);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len(0, 512);
  const int rounds = testing::FuzzRounds(2000);
  for (int round = 0; round < rounds; ++round) {
    std::string noise(len(rng), '\0');
    for (char& c : noise) c = static_cast<char>(byte(rng));
    auto result = DeserializeDatabaseBinary(noise);
    if (result.ok()) {
      EXPECT_TRUE((*result)->CheckConsistency().ok());
    }
  }
}

TEST(SerializerFuzzTest, WalScanNeverCrashesOnMutatedInput) {
  // Build a small WAL image, then mutate it; the scanner must always return
  // cleanly (it cannot even fail — corruption only shortens the result).
  std::string image;
  {
    WalRecord r;
    r.kind = WalRecord::Kind::kDefineAtomType;
    r.name = "t";
    EXPECT_TRUE(r.schema.AddAttribute("x", DataType::kInt64).ok());
    image += FrameWalRecord(r);
    WalRecord ins;
    ins.kind = WalRecord::Kind::kInsertAtom;
    ins.name = "t";
    ins.id = 1;
    ins.values = {Value(int64_t{42})};
    image += FrameWalRecord(ins);
  }
  std::mt19937 rng(kSeed ^ 3);
  std::uniform_int_distribution<int> mutation_count(1, 8);
  const int rounds = testing::FuzzRounds(2000);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = Mutate(image, rng, mutation_count(rng));
    WalReadResult result = ReadWal(mutated);
    EXPECT_LE(result.valid_bytes, mutated.size());
    EXPECT_EQ(result.valid_bytes + result.discarded_bytes, mutated.size());
  }
}

}  // namespace
}  // namespace mad
