// PERF-CLONE: database snapshot cost — CloneDatabase and its two halves,
// serializing to and reading back the binary checkpoint image, on the
// scaled PERF-NM geo database.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "storage/binary_codec.h"
#include "workload/geo.h"

namespace {

struct CloneFixture {
  std::unique_ptr<mad::Database> db;
  std::string binary_image;
  int64_t states = -1;

  static CloneFixture& Get(benchmark::State& state) {
    static CloneFixture f;
    if (f.db == nullptr || f.states != state.range(0)) {
      f.states = state.range(0);
      f.db = std::make_unique<mad::Database>("SCALED");
      mad::workload::GeoScale scale;
      scale.states = static_cast<int>(f.states);
      scale.rivers = scale.states / 5 + 1;
      scale.shared_edge_fraction = 0.6;
      auto stats = mad::workload::GenerateScaledGeo(*f.db, scale);
      if (!stats.ok()) {
        state.SkipWithError(stats.status().ToString().c_str());
        return f;
      }
      auto binary = mad::SerializeDatabaseBinary(*f.db);
      if (!binary.ok()) {
        state.SkipWithError("serialization failed");
        return f;
      }
      f.binary_image = *std::move(binary);
    }
    return f;
  }
};

void BM_CloneBinary(benchmark::State& state) {
  auto& f = CloneFixture::Get(state);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto clone = mad::CloneDatabase(*f.db);
    if (!clone.ok()) {
      state.SkipWithError(clone.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&clone);
  }
  state.counters["image_bytes"] = static_cast<double>(f.binary_image.size());
}
BENCHMARK(BM_CloneBinary)->Arg(10)->Arg(50)->Arg(200);

void BM_SerializeBinary(benchmark::State& state) {
  auto& f = CloneFixture::Get(state);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto bytes = mad::SerializeDatabaseBinary(*f.db);
    if (!bytes.ok()) {
      state.SkipWithError(bytes.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&bytes);
  }
}
BENCHMARK(BM_SerializeBinary)->Arg(50)->Arg(200);

void BM_DeserializeBinary(benchmark::State& state) {
  auto& f = CloneFixture::Get(state);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto db = mad::DeserializeDatabaseBinary(f.binary_image);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&db);
  }
}
BENCHMARK(BM_DeserializeBinary)->Arg(50)->Arg(200);

const bool kHeaderPrinted = [] {
  std::cout << "==== PERF-CLONE: binary checkpoint image (CloneDatabase) "
               "====\n"
               "workload: scaled geo network snapshot, serialize + parse "
               "back into a fresh database\n\n";
  return true;
}();

}  // namespace
