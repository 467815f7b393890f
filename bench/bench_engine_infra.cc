// ENGINE-INFRA: costs of the supporting machinery — database cloning,
// occurrence statistics, the consistency audit, and cardinality-checked
// link insertion.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "molecule/derivation.h"
#include "molecule/statistics.h"
#include "storage/binary_codec.h"
#include "workload/geo.h"

namespace {

const bool kHeaderPrinted = [] {
  std::cout << "==== ENGINE-INFRA: clone / statistics / consistency audit "
               "====\n\n";
  return true;
}();

struct InfraFixture {
  std::unique_ptr<mad::Database> db;
  int64_t states = -1;

  static InfraFixture& Get(benchmark::State& state) {
    static InfraFixture f;
    if (f.db == nullptr || f.states != state.range(0)) {
      f.states = state.range(0);
      f.db = std::make_unique<mad::Database>("SCALED");
      mad::workload::GeoScale scale;
      scale.states = static_cast<int>(f.states);
      scale.rivers = scale.states / 5 + 1;
      auto stats = mad::workload::GenerateScaledGeo(*f.db, scale);
      if (!stats.ok()) {
        state.SkipWithError(stats.status().ToString().c_str());
        f.db.reset();
      }
    }
    return f;
  }
};

void BM_Clone(benchmark::State& state) {
  auto& f = InfraFixture::Get(state);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto clone = mad::CloneDatabase(*f.db);
    benchmark::DoNotOptimize(&clone);
  }
}
BENCHMARK(BM_Clone)->Arg(50)->Arg(200);

void BM_ConsistencyAudit(benchmark::State& state) {
  auto& f = InfraFixture::Get(state);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto s = f.db->CheckConsistency();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
}
BENCHMARK(BM_ConsistencyAudit)->Arg(50)->Arg(200);

void BM_MoleculeTypeStatistics(benchmark::State& state) {
  auto& f = InfraFixture::Get(state);
  if (f.db == nullptr) return;
  auto md = mad::MoleculeDescription::CreateFromTypes(
      *f.db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  if (!md.ok()) {
    state.SkipWithError(md.status().ToString().c_str());
    return;
  }
  auto mt = mad::DefineMoleculeType(*f.db, "mt", *md);
  if (!mt.ok()) {
    state.SkipWithError(mt.status().ToString().c_str());
    return;
  }
  double sharing = 0.0;
  for (auto _ : state) {
    mad::MoleculeTypeStats stats = mad::ComputeMoleculeTypeStats(*mt);
    sharing = stats.sharing_factor();
    benchmark::DoNotOptimize(&stats);
  }
  state.counters["sharing_factor"] = sharing;
}
BENCHMARK(BM_MoleculeTypeStatistics)->Arg(50)->Arg(200);

void BM_CardinalityCheckedInsert(benchmark::State& state) {
  // 1:1-checked insert+erase vs the unrestricted n:m path measured in
  // bench_fig4 (BM_ReferentialIntegrityInsertLink).
  mad::Database db("CARD");
  mad::Schema s;
  auto st = s.AddAttribute("name", mad::DataType::kString);
  benchmark::DoNotOptimize(&st);
  st = db.DefineAtomType("a", s);
  st = db.DefineAtomType("b", s);
  st = db.DefineLinkType("l", "a", "b", mad::LinkCardinality::kOneToOne);
  auto a = db.InsertAtom("a", {mad::Value("a1")});
  auto b = db.InsertAtom("b", {mad::Value("b1")});
  if (!a.ok() || !b.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto s1 = db.InsertLink("l", *a, *b);
    benchmark::DoNotOptimize(&s1);
    auto s2 = db.EraseLink("l", *a, *b);
    benchmark::DoNotOptimize(&s2);
  }
}
BENCHMARK(BM_CardinalityCheckedInsert);

}  // namespace
