// PERF-NM: the paper's motivating performance claim (Ch. 2): traversing
// n:m relationships through direct, symmetric links versus through the
// auxiliary relations a relational transformation needs. The workload asks,
// for every area, for its border edges and their points — a two-step n:m
// walk. MAD answers with one molecule derivation; the relational side needs
// a four-way join chain through two auxiliary relations. Expected shape:
// MAD wins, and the gap widens with the sharing degree and the network
// size (the join materialises ever larger intermediates).

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "molecule/derivation.h"
#include "relational/bridge.h"
#include "relational/rel_algebra.h"
#include "workload/geo.h"

namespace {

struct NmFixture {
  std::unique_ptr<mad::Database> db;
  std::unique_ptr<mad::rel::RelationalDatabase> rdb;
  std::unique_ptr<mad::MoleculeDescription> md;
  int64_t states = -1;

  static NmFixture& Get(benchmark::State& state) {
    static NmFixture f;
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
      auto rdb = mad::rel::TransformToRelational(*f.db);
      if (!rdb.ok()) {
        state.SkipWithError(rdb.status().ToString().c_str());
        return f;
      }
      f.rdb = std::make_unique<mad::rel::RelationalDatabase>(*std::move(rdb));
      auto md = mad::MoleculeDescription::CreateFromTypes(
          *f.db, {"area", "edge", "point"},
          {{"area-edge", "area", "edge", false},
           {"edge-point", "edge", "point", false}});
      if (!md.ok()) {
        state.SkipWithError(md.status().ToString().c_str());
        return f;
      }
      f.md = std::make_unique<mad::MoleculeDescription>(*std::move(md));
    }
    return f;
  }
};

void BM_MadNmWalk(benchmark::State& state) {
  auto& f = NmFixture::Get(state);
  if (f.md == nullptr) return;
  size_t atoms = 0;
  for (auto _ : state) {
    auto mv = mad::DeriveMolecules(*f.db, *f.md);
    if (!mv.ok()) {
      state.SkipWithError(mv.status().ToString().c_str());
      return;
    }
    atoms = 0;
    for (const mad::Molecule& m : *mv) atoms += m.atom_count();
    benchmark::DoNotOptimize(&mv);
  }
  state.counters["result_atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_MadNmWalk)->Arg(10)->Arg(50)->Arg(200);

void BM_MadNmWalkSnapshotReuse(benchmark::State& state) {
  // Amortises the frozen-snapshot build across derivations — the repeated-
  // query shape (the MQL session reuses one engine the same way).
  auto& f = NmFixture::Get(state);
  if (f.md == nullptr) return;
  auto engine = mad::DerivationEngine::Create(*f.db, *f.md);
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto mv = engine->DeriveAll();
    if (!mv.ok()) {
      state.SkipWithError(mv.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&mv);
  }
}
BENCHMARK(BM_MadNmWalkSnapshotReuse)->Arg(200);

void BM_RelationalNmWalk(benchmark::State& state) {
  auto& f = NmFixture::Get(state);
  if (f.rdb == nullptr) return;
  const mad::rel::Relation* area = *f.rdb->Get("area");
  const mad::rel::Relation* area_edge = *f.rdb->Get("area-edge");
  const mad::rel::Relation* edge_point = *f.rdb->Get("edge-point");
  auto edge = mad::rel::Rename(**f.rdb->Get("edge"),
                               {{"_id", "_eid"}, {"name", "ename"}});
  auto point = mad::rel::Rename(
      **f.rdb->Get("point"),
      {{"_id", "_pid"}, {"name", "pname"}, {"x", "px"}, {"y", "py"}});
  auto ep = mad::rel::Rename(*edge_point, {{"_from", "_efrom"},
                                           {"_to", "_eto"}});
  if (!edge.ok() || !point.ok() || !ep.ok()) {
    state.SkipWithError("rename failed");
    return;
  }
  size_t rows = 0;
  for (auto _ : state) {
    // area |x| area-edge |x| edge |x| edge-point |x| point.
    auto j1 = mad::rel::EquiJoin(*area, "_id", *area_edge, "_from");
    if (!j1.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    auto j2 = mad::rel::EquiJoin(*j1, "_to", *edge, "_eid");
    auto j3 = j2.ok() ? mad::rel::EquiJoin(*j2, "_eid", *ep, "_efrom") : j2;
    auto j4 = j3.ok() ? mad::rel::EquiJoin(*j3, "_eto", *point, "_pid") : j3;
    if (!j4.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    rows = j4->size();
    benchmark::DoNotOptimize(&j4);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_RelationalNmWalk)->Arg(10)->Arg(50)->Arg(200);

void BM_MadSymmetricBackWalk(benchmark::State& state) {
  // The reverse direction (point -> edge -> area) needs no new schema on
  // the MAD side: the same links are traversed backward.
  auto& f = NmFixture::Get(state);
  if (f.db == nullptr) return;
  auto md = mad::MoleculeDescription::CreateFromTypes(
      *f.db, {"point", "edge", "area"},
      {{"edge-point", "point", "edge", false},
       {"area-edge", "edge", "area", false}});
  if (!md.ok()) {
    state.SkipWithError(md.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto mv = mad::DeriveMolecules(*f.db, *md);
    benchmark::DoNotOptimize(&mv);
  }
}
BENCHMARK(BM_MadSymmetricBackWalk)->Arg(10)->Arg(50);

void BM_RelationalBackWalk(benchmark::State& state) {
  auto& f = NmFixture::Get(state);
  if (f.rdb == nullptr) return;
  const mad::rel::Relation* point = *f.rdb->Get("point");
  const mad::rel::Relation* edge_point = *f.rdb->Get("edge-point");
  auto area = mad::rel::Rename(
      **f.rdb->Get("area"),
      {{"_id", "_aid"}, {"name", "aname"}, {"hectare", "ahectare"}});
  auto ae = mad::rel::Rename(**f.rdb->Get("area-edge"),
                             {{"_from", "_afrom"}, {"_to", "_ato"}});
  if (!area.ok() || !ae.ok()) {
    state.SkipWithError("rename failed");
    return;
  }
  for (auto _ : state) {
    auto j1 = mad::rel::EquiJoin(*point, "_id", *edge_point, "_to");
    auto j2 = j1.ok() ? mad::rel::EquiJoin(*j1, "_from", *ae, "_ato") : j1;
    auto j3 = j2.ok() ? mad::rel::EquiJoin(*j2, "_afrom", *area, "_aid") : j2;
    if (!j3.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(&j3);
  }
}
BENCHMARK(BM_RelationalBackWalk)->Arg(10)->Arg(50);

const bool kHeaderPrinted = [] {
  std::cout << "==== PERF-NM: n:m traversal — direct links vs auxiliary "
               "relations (Ch. 2 claim) ====\n"
               "workload: every area's border edges and their corner "
               "points; reverse walk point->area\n\n";
  return true;
}();

}  // namespace
