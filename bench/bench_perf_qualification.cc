// PERF-QUAL: compiled predicate programs vs the tree interpreter, and
// qualification pushdown on/off through the MQL session, over scaled
// geographic networks. Expected shape: compiled evaluation wins by the
// per-atom interpreter overhead it deletes (shared_ptr tree walks, string
// lookups, per-atom id hashing, SubstituteCounts rebuilds) — largest on
// deep existential scans and COUNT-heavy predicates; pushdown additionally
// prunes rejected molecules before their descendants expand.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <string>

#include "expr/compile.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "support/molecule_qualifier.h"
#include "mql/session.h"
#include "workload/geo.h"

namespace {

namespace e = mad::expr;

struct QualFixture {
  std::unique_ptr<mad::Database> db;
  std::unique_ptr<mad::MoleculeType> mt;
  int64_t states = -1;

  static QualFixture& Get(benchmark::State& state) {
    static QualFixture f;
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
        return f;
      }
      auto md = mad::MoleculeDescription::CreateFromTypes(
          *f.db, {"state", "area", "edge", "point"},
          {{"state-area", "state", "area", false},
           {"area-edge", "area", "edge", false},
           {"edge-point", "edge", "point", false}});
      if (!md.ok()) {
        state.SkipWithError(md.status().ToString().c_str());
        f.db.reset();
        return f;
      }
      auto mt = mad::DefineMoleculeType(*f.db, "mt_state", *md);
      if (!mt.ok()) {
        state.SkipWithError(mt.status().ToString().c_str());
        f.db.reset();
        return f;
      }
      f.mt = std::make_unique<mad::MoleculeType>(*std::move(mt));
    }
    return f;
  }
};

// The four qualification shapes the suite tracks.
e::ExprPtr ShallowPredicate() {
  return e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000}));
}
e::ExprPtr DeepPredicate() {
  return e::Gt(e::Attr("point", "x"), e::Lit(990.0));
}
e::ExprPtr CountPredicate() {
  return e::Ge(e::Count("point"), e::Lit(int64_t{4}));
}
e::ExprPtr ForAllPredicate() {
  return e::ForAll("point", e::Ge(e::Attr("point", "x"), e::Lit(0.0)));
}

/// One iteration = the full molecule set through MoleculeQualifier (the
/// tree-walking oracle).
void RunInterpreter(benchmark::State& state, const e::ExprPtr& pred) {
  auto& f = QualFixture::Get(state);
  if (f.db == nullptr) return;
  auto qualifier =
      mad::MoleculeQualifier::Create(*f.db, f.mt->description(), pred);
  if (!qualifier.ok()) {
    state.SkipWithError(qualifier.status().ToString().c_str());
    return;
  }
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (mad::MoleculeView m : f.mt->molecules()) {
      auto verdict = qualifier->Matches(m);
      if (!verdict.ok()) {
        state.SkipWithError(verdict.status().ToString().c_str());
        return;
      }
      hits += *verdict ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["molecules"] = static_cast<double>(f.mt->size());
  state.counters["hits"] = static_cast<double>(hits);
}

/// One iteration = the full molecule set through the compiled program.
void RunCompiled(benchmark::State& state, const e::ExprPtr& pred) {
  auto& f = QualFixture::Get(state);
  if (f.db == nullptr) return;
  auto program =
      e::CompiledPredicate::Compile(*f.db, f.mt->description(), pred);
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  e::CompiledPredicate::Scratch scratch;
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (mad::MoleculeView m : f.mt->molecules()) {
      auto verdict = program->EvalMolecule(m, scratch);
      if (!verdict.ok()) {
        state.SkipWithError(verdict.status().ToString().c_str());
        return;
      }
      hits += *verdict ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["molecules"] = static_cast<double>(f.mt->size());
  state.counters["hits"] = static_cast<double>(hits);
}

void BM_QualifyInterpreterShallow(benchmark::State& state) {
  RunInterpreter(state, ShallowPredicate());
}
void BM_QualifyCompiledShallow(benchmark::State& state) {
  RunCompiled(state, ShallowPredicate());
}
void BM_QualifyInterpreterDeep(benchmark::State& state) {
  RunInterpreter(state, DeepPredicate());
}
void BM_QualifyCompiledDeep(benchmark::State& state) {
  RunCompiled(state, DeepPredicate());
}
void BM_QualifyInterpreterCount(benchmark::State& state) {
  RunInterpreter(state, CountPredicate());
}
void BM_QualifyCompiledCount(benchmark::State& state) {
  RunCompiled(state, CountPredicate());
}
void BM_QualifyInterpreterForAll(benchmark::State& state) {
  RunInterpreter(state, ForAllPredicate());
}
void BM_QualifyCompiledForAll(benchmark::State& state) {
  RunCompiled(state, ForAllPredicate());
}
BENCHMARK(BM_QualifyInterpreterShallow)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyCompiledShallow)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyInterpreterDeep)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyCompiledDeep)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyInterpreterCount)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyCompiledCount)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyInterpreterForAll)->Arg(100)->Arg(400);
BENCHMARK(BM_QualifyCompiledForAll)->Arg(100)->Arg(400);

/// Σ as the operator runs it: the compiled program over every molecule.
void BM_SigmaCompiled(benchmark::State& state) {
  auto& f = QualFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = DeepPredicate();
  for (auto _ : state) {
    auto result = mad::RestrictMolecules(*f.db, *f.mt, pred, "sigma");
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SigmaCompiled)->Arg(100)->Arg(400);

/// End-to-end MQL: derivation with the WHERE fused in (pushdown on) vs
/// derive-everything-then-restrict (pushdown off, the same WHERE through
/// the operators DefineMoleculeType and RestrictMolecules).
void BM_SelectPushdownOff(benchmark::State& state) {
  auto& f = QualFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = DeepPredicate();
  size_t size = 0;
  for (auto _ : state) {
    auto derived = mad::DefineMoleculeType(*f.db, "m", f.mt->description());
    if (!derived.ok()) {
      state.SkipWithError(derived.status().ToString().c_str());
      return;
    }
    auto result = mad::RestrictMolecules(*f.db, *derived, pred, "m");
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    size = result->size();
    benchmark::DoNotOptimize(&result);
  }
  state.counters["result_molecules"] = static_cast<double>(size);
}

void BM_SelectPushdownOn(benchmark::State& state) {
  auto& f = QualFixture::Get(state);
  if (f.db == nullptr) return;
  mad::mql::Session session(f.db.get());
  const std::string query =
      "SELECT ALL FROM m(state-area-edge-point) WHERE point.x > 990.0;";
  size_t size = 0;
  for (auto _ : state) {
    auto result = session.Execute(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    size = result->molecules->size();
    benchmark::DoNotOptimize(&result);
  }
  state.counters["result_molecules"] = static_cast<double>(size);
}
BENCHMARK(BM_SelectPushdownOff)->Arg(100)->Arg(400);
BENCHMARK(BM_SelectPushdownOn)->Arg(100)->Arg(400);

const bool kHeaderPrinted = [] {
  std::cout << "==== PERF-QUAL: compiled qualification programs vs the tree "
               "interpreter, pushdown on/off ====\n\n";
  return true;
}();

}  // namespace
