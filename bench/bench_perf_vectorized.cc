// PERF-VEC: batch (columnar bitmap) predicate execution vs the scalar
// compiled engine over scaled geographic networks. Expected shape: batch
// wins wherever a leaf is batch-eligible (single binding loop, no COUNT) —
// the compare runs once per head row through a typed column kernel and
// every molecule after the first probes cached bits, so deep existential
// scans and FORALL sweeps collapse to bitmap walks. COUNT leaves read
// group sizes, stay scalar by design, and are included to pin that the
// planner's refusal costs nothing.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <string>

#include "expr/compile.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/session.h"
#include "workload/geo.h"

namespace {

namespace e = mad::expr;

struct VecFixture {
  std::unique_ptr<mad::Database> db;
  std::unique_ptr<mad::MoleculeType> mt;
  int64_t states = -1;

  static VecFixture& Get(benchmark::State& state) {
    static VecFixture f;
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

// The qualification shapes PERF-QUAL tracks, re-measured engine vs engine.
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

/// One iteration = the full molecule set through one compiled engine.
void RunEngine(benchmark::State& state, const e::ExprPtr& pred,
               e::CompiledPredicate::BatchMode mode) {
  auto& f = VecFixture::Get(state);
  if (f.db == nullptr) return;
  auto program = e::CompiledPredicate::Compile(*f.db, f.mt->description(),
                                               pred, std::nullopt, mode);
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
  state.counters["batch_leaves"] =
      static_cast<double>(program->batch_leaf_count());
}

void BM_VecScalarShallow(benchmark::State& state) {
  RunEngine(state, ShallowPredicate(),
            e::CompiledPredicate::BatchMode::kScalar);
}
void BM_VecBatchShallow(benchmark::State& state) {
  RunEngine(state, ShallowPredicate(), e::CompiledPredicate::BatchMode::kAuto);
}
void BM_VecScalarDeep(benchmark::State& state) {
  RunEngine(state, DeepPredicate(), e::CompiledPredicate::BatchMode::kScalar);
}
void BM_VecBatchDeep(benchmark::State& state) {
  RunEngine(state, DeepPredicate(), e::CompiledPredicate::BatchMode::kAuto);
}
void BM_VecScalarForAll(benchmark::State& state) {
  RunEngine(state, ForAllPredicate(), e::CompiledPredicate::BatchMode::kScalar);
}
void BM_VecBatchForAll(benchmark::State& state) {
  RunEngine(state, ForAllPredicate(), e::CompiledPredicate::BatchMode::kAuto);
}
void BM_VecScalarCount(benchmark::State& state) {
  RunEngine(state, CountPredicate(), e::CompiledPredicate::BatchMode::kScalar);
}
void BM_VecBatchCount(benchmark::State& state) {
  RunEngine(state, CountPredicate(), e::CompiledPredicate::BatchMode::kAuto);
}
BENCHMARK(BM_VecScalarShallow)->Arg(100)->Arg(400);
BENCHMARK(BM_VecBatchShallow)->Arg(100)->Arg(400);
BENCHMARK(BM_VecScalarDeep)->Arg(100)->Arg(400);
BENCHMARK(BM_VecBatchDeep)->Arg(100)->Arg(400);
BENCHMARK(BM_VecScalarForAll)->Arg(100)->Arg(400);
BENCHMARK(BM_VecBatchForAll)->Arg(100)->Arg(400);
BENCHMARK(BM_VecScalarCount)->Arg(100)->Arg(400);
BENCHMARK(BM_VecBatchCount)->Arg(100)->Arg(400);

/// Σ through the operator (compiles per call, so each iteration pays one
/// column-kernel pass and then probes bits per molecule).
void BM_VecSigmaBatch(benchmark::State& state) {
  auto& f = VecFixture::Get(state);
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
BENCHMARK(BM_VecSigmaBatch)->Arg(400);

/// End-to-end MQL without an index: the columnar scan seed prunes the root
/// fan-out from the kernel's pass bitmap (vs the same WHERE through the
/// operators DefineMoleculeType and RestrictMolecules, which derive
/// everything and then restrict).
void BM_VecSelectScanSeedOff(benchmark::State& state) {
  auto& f = VecFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{9000}));
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

void BM_VecSelectScanSeedOn(benchmark::State& state) {
  auto& f = VecFixture::Get(state);
  if (f.db == nullptr) return;
  mad::mql::Session session(f.db.get());
  const std::string query =
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.hectare > 9000;";
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
BENCHMARK(BM_VecSelectScanSeedOff)->Arg(400);
BENCHMARK(BM_VecSelectScanSeedOn)->Arg(400);

const bool kHeaderPrinted = [] {
  std::cout << "==== PERF-VEC: batch (columnar bitmap) predicate execution "
               "vs the scalar compiled engine ====\n\n";
  return true;
}();

}  // namespace
