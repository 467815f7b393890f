// FIG2: regenerates Figure 2 (the molecule types 'point neighborhood' and
// 'mt_state' with their shared subobjects) and measures molecule derivation
// on the exact figure data and on scaled atom networks.

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <memory>

#include "molecule/derivation.h"
#include "text/printer.h"
#include "workload/geo.h"

namespace {

mad::MoleculeDescription MtStateDescription(const mad::Database& db) {
  auto md = mad::MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  return *md;
}

mad::MoleculeDescription PointNeighborhoodDescription(const mad::Database& db) {
  auto md = mad::MoleculeDescription::CreateFromTypes(
      db, {"point", "edge", "area", "state", "net", "river"},
      {{"edge-point", "point", "edge", false},
       {"area-edge", "edge", "area", false},
       {"state-area", "area", "state", false},
       {"net-edge", "edge", "net", false},
       {"river-net", "net", "river", false}});
  return *md;
}

const bool kFigurePrinted = [] {
  mad::Database db("GEO_DB");
  auto ids = mad::workload::BuildFigure4GeoDatabase(db);
  if (!ids.ok()) return false;

  std::cout << "==== FIG2: Figure 2 — some complex objects ====\n";
  auto pn = mad::DefineMoleculeType(db, "point neighborhood",
                                    PointNeighborhoodDescription(db));
  if (pn.ok()) {
    // Show the molecule rooted at the paper's point 'pn'.
    for (mad::MoleculeView m : pn->molecules()) {
      if (m.root() == ids->points["pn"]) {
        std::cout << mad::text::FormatMolecule(db, pn->description(), m);
      }
    }
  }
  auto mt_state =
      mad::DefineMoleculeType(db, "mt_state", MtStateDescription(db));
  if (mt_state.ok()) {
    std::cout << "\n" << mad::text::FormatMoleculeType(db, *mt_state, 3);
    // Shared subobjects: count points occurring in >1 state molecule.
    size_t point_idx = *mt_state->description().NodeIndex("point");
    std::map<mad::AtomId, int> uses;
    for (mad::MoleculeView m : mt_state->molecules()) {
      for (mad::AtomId id : m.AtomsOf(point_idx)) ++uses[id];
    }
    int shared = 0;
    for (const auto& [id, n] : uses) {
      if (n > 1) ++shared;
    }
    std::cout << "shared subobjects: " << shared
              << " point atom(s) belong to several state molecules\n\n";
  }
  return true;
}();

void BM_DeriveMtStateFigure4(benchmark::State& state) {
  mad::Database db("GEO_DB");
  auto ids = mad::workload::BuildFigure4GeoDatabase(db);
  if (!ids.ok()) {
    state.SkipWithError("fixture failed");
    return;
  }
  mad::MoleculeDescription md = MtStateDescription(db);
  for (auto _ : state) {
    auto mv = mad::DeriveMolecules(db, md);
    benchmark::DoNotOptimize(&mv);
  }
}
BENCHMARK(BM_DeriveMtStateFigure4);

void BM_DerivePointNeighborhoodFigure4(benchmark::State& state) {
  mad::Database db("GEO_DB");
  auto ids = mad::workload::BuildFigure4GeoDatabase(db);
  if (!ids.ok()) {
    state.SkipWithError("fixture failed");
    return;
  }
  mad::MoleculeDescription md = PointNeighborhoodDescription(db);
  for (auto _ : state) {
    auto mv = mad::DeriveMolecules(db, md);
    benchmark::DoNotOptimize(&mv);
  }
}
BENCHMARK(BM_DerivePointNeighborhoodFigure4);

/// Scaled derivation: one fixture per state-count argument.
class ScaledGeo : public benchmark::Fixture {
 public:
  void SetUp(::benchmark::State& state) override {
    if (db_ != nullptr && states_ == state.range(0)) return;
    states_ = state.range(0);
    db_ = std::make_unique<mad::Database>("SCALED");
    mad::workload::GeoScale scale;
    scale.states = static_cast<int>(states_);
    scale.rivers = scale.states / 5 + 1;
    auto stats = mad::workload::GenerateScaledGeo(*db_, scale);
    if (!stats.ok()) state.SkipWithError(stats.status().ToString().c_str());
  }

  static std::unique_ptr<mad::Database> db_;
  static int64_t states_;
};
std::unique_ptr<mad::Database> ScaledGeo::db_;
int64_t ScaledGeo::states_ = -1;

BENCHMARK_DEFINE_F(ScaledGeo, DeriveMtState)(benchmark::State& state) {
  mad::MoleculeDescription md = MtStateDescription(*db_);
  size_t molecules = 0;
  for (auto _ : state) {
    auto mv = mad::DeriveMolecules(*db_, md);
    if (mv.ok()) molecules = mv->size();
    benchmark::DoNotOptimize(&mv);
  }
  state.counters["molecules"] = static_cast<double>(molecules);
}
BENCHMARK_REGISTER_F(ScaledGeo, DeriveMtState)->Arg(10)->Arg(50)->Arg(200);

BENCHMARK_DEFINE_F(ScaledGeo, DerivePointNeighborhood)
(benchmark::State& state) {
  mad::MoleculeDescription md = PointNeighborhoodDescription(*db_);
  size_t molecules = 0;
  for (auto _ : state) {
    auto mv = mad::DeriveMolecules(*db_, md);
    if (mv.ok()) molecules = mv->size();
    benchmark::DoNotOptimize(&mv);
  }
  state.counters["molecules"] = static_cast<double>(molecules);
}
BENCHMARK_REGISTER_F(ScaledGeo, DerivePointNeighborhood)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200);

/// Single-molecule derivation (the interactive navigation case).
BENCHMARK_DEFINE_F(ScaledGeo, DeriveSingleMolecule)(benchmark::State& state) {
  mad::MoleculeDescription md = MtStateDescription(*db_);
  auto root_type = db_->GetAtomType("state");
  if (!root_type.ok() || (*root_type)->occurrence().empty()) {
    state.SkipWithError("no states");
    return;
  }
  mad::AtomId root = (*root_type)->occurrence().atoms()[0].id;
  for (auto _ : state) {
    auto m = mad::DeriveMoleculeFor(*db_, md, root);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK_REGISTER_F(ScaledGeo, DeriveSingleMolecule)->Arg(50)->Arg(200);

}  // namespace
