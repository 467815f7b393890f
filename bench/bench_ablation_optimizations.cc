// ABLATION: the two engine design choices DESIGN.md calls out —
// (1) secondary attribute indexes behind the equality fast path of σ, and
// (2) root-predicate pushdown below molecule derivation. Each is measured
// against its disabled variant on the same workload. Expected shape:
// the index turns point restrictions from O(N) scans into O(hits); the
// pushdown makes selective molecule queries proportional to the qualifying
// roots instead of the whole occurrence.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "algebra/atom_algebra.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/session.h"
#include "workload/geo.h"

namespace {

namespace e = mad::expr;

const bool kHeaderPrinted = [] {
  std::cout << "==== ABLATION: secondary indexes and root-predicate pushdown "
               "====\n\n";
  return true;
}();

struct AblationFixture {
  std::unique_ptr<mad::Database> db;
  int64_t states = -1;
  bool indexed = false;

  static AblationFixture& Get(benchmark::State& state, bool want_index) {
    static AblationFixture f;
    if (f.db == nullptr || f.states != state.range(0)) {
      f.states = state.range(0);
      f.db = std::make_unique<mad::Database>("SCALED");
      f.indexed = false;
      mad::workload::GeoScale scale;
      scale.states = static_cast<int>(f.states);
      auto stats = mad::workload::GenerateScaledGeo(*f.db, scale);
      if (!stats.ok()) {
        state.SkipWithError(stats.status().ToString().c_str());
        f.db.reset();
        return f;
      }
    }
    if (want_index && !f.indexed) {
      auto s = f.db->CreateIndex("point", "name");
      if (!s.ok() && s.code() != mad::StatusCode::kAlreadyExists) {
        state.SkipWithError(s.ToString().c_str());
      }
      f.indexed = true;
    }
    if (!want_index && f.indexed) {
      auto s = f.db->DropIndex("point", "name");
      benchmark::DoNotOptimize(&s);
      f.indexed = false;
    }
    return f;
  }
};

void RunPointRestrict(benchmark::State& state, bool want_index) {
  auto& f = AblationFixture::Get(state, want_index);
  if (f.db == nullptr) return;
  // Look up one specific point by name.
  auto pred = e::Eq(e::Attr("name"), e::Lit("p1_1"));
  mad::algebra::AlgebraOptions options;
  options.inherit_links = false;
  for (auto _ : state) {
    auto result = mad::algebra::Restrict(*f.db, "point", pred, "", options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    state.PauseTiming();
    auto s = f.db->DropAtomType(result->atom_type);
    benchmark::DoNotOptimize(&s);
    state.ResumeTiming();
  }
}

void BM_PointRestrict_Scan(benchmark::State& state) {
  RunPointRestrict(state, false);
}
BENCHMARK(BM_PointRestrict_Scan)->Arg(50)->Arg(200)->Arg(800);

void BM_PointRestrict_Indexed(benchmark::State& state) {
  RunPointRestrict(state, true);
}
BENCHMARK(BM_PointRestrict_Indexed)->Arg(50)->Arg(200)->Arg(800);

void BM_PointLookup_Scan(benchmark::State& state) {
  auto& f = AblationFixture::Get(state, false);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto hits = f.db->LookupByAttribute("point", "name", mad::Value("p1_1"));
    benchmark::DoNotOptimize(&hits);
  }
}
BENCHMARK(BM_PointLookup_Scan)->Arg(200)->Arg(800);

void BM_PointLookup_Indexed(benchmark::State& state) {
  auto& f = AblationFixture::Get(state, true);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto hits = f.db->LookupByAttribute("point", "name", mad::Value("p1_1"));
    benchmark::DoNotOptimize(&hits);
  }
}
BENCHMARK(BM_PointLookup_Indexed)->Arg(200)->Arg(800);

/// Pushdown off: the WHERE through the operators DefineMoleculeType and
/// RestrictMolecules, which derive every molecule and then restrict.
void RunDeriveThenRestrict(benchmark::State& state, const e::ExprPtr& where) {
  auto& f = AblationFixture::Get(state, false);
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
  size_t molecules = 0;
  for (auto _ : state) {
    auto derived = mad::DefineMoleculeType(*f.db, "m", *md);
    if (!derived.ok()) {
      state.SkipWithError(derived.status().ToString().c_str());
      return;
    }
    auto result = mad::RestrictMolecules(*f.db, *derived, where, "m");
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    molecules = result->size();
  }
  state.counters["molecules"] = static_cast<double>(molecules);
}

/// Pushdown on: the same WHERE through the MQL session.
void RunPushdownQuery(benchmark::State& state, const char* query) {
  auto& f = AblationFixture::Get(state, false);
  if (f.db == nullptr) return;
  mad::mql::Session session(f.db.get());
  size_t molecules = 0;
  for (auto _ : state) {
    auto result = session.Execute(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    molecules = result->molecules->size();
  }
  state.counters["molecules"] = static_cast<double>(molecules);
}

void BM_SelectiveQuery_NoPushdown(benchmark::State& state) {
  RunDeriveThenRestrict(state, e::Eq(e::Attr("state", "name"), e::Lit("S1")));
}
BENCHMARK(BM_SelectiveQuery_NoPushdown)->Arg(50)->Arg(200)->Arg(800);

void BM_SelectiveQuery_Pushdown(benchmark::State& state) {
  RunPushdownQuery(
      state,
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 'S1';");
}
BENCHMARK(BM_SelectiveQuery_Pushdown)->Arg(50)->Arg(200)->Arg(800);

// Sanity companion: with an unselective root predicate the pushdown cannot
// help (derives nearly everything either way).
void BM_UnselectiveQuery_NoPushdown(benchmark::State& state) {
  RunDeriveThenRestrict(
      state, e::Ge(e::Attr("state", "hectare"), e::Lit(int64_t{0})));
}
BENCHMARK(BM_UnselectiveQuery_NoPushdown)->Arg(200);

void BM_UnselectiveQuery_Pushdown(benchmark::State& state) {
  RunPushdownQuery(
      state,
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.hectare >= 0;");
}
BENCHMARK(BM_UnselectiveQuery_Pushdown)->Arg(200);

}  // namespace
