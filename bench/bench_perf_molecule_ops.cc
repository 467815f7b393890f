// PERF-OPS: scaling of the molecule algebra operators Σ, Π, Ω, Δ, Ψ, X and
// of the propagation function prop over scaled geographic networks, plus
// the two steps every SELECT result takes after them: the render and the
// frame checksum.
// Expected shape: Σ is linear in the molecule count times qualification
// cost; Π is linear in retained atoms; the set operators are linear in the
// atoms and links they hash and compare; X is quadratic (|mv1|·|mv2|); prop
// is linear in the distinct atoms/links of the result set.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "molecule/propagation.h"
#include "mql/session.h"
#include "text/printer.h"
#include "util/crc32.h"
#include "util/string_util.h"
#include "workload/geo.h"

namespace {

namespace e = mad::expr;

struct OpsFixture {
  std::unique_ptr<mad::Database> db;
  std::unique_ptr<mad::MoleculeType> mt;
  int64_t states = -1;

  static OpsFixture& Get(benchmark::State& state) {
    static OpsFixture f;
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

void BM_MoleculeDerivation(benchmark::State& state) {
  // The molecule-type definition operator `a` itself; snapshot build +
  // fan-out per iteration.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  mad::DerivationStats stats;
  for (auto _ : state) {
    auto mt = mad::DefineMoleculeType(*f.db, "bench", f.mt->description(),
                                      {}, &stats);
    if (!mt.ok()) {
      state.SkipWithError(mt.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&mt);
  }
  state.counters["atoms_visited"] = static_cast<double>(stats.atoms_visited);
  state.counters["links_scanned"] = static_cast<double>(stats.links_scanned);
}
BENCHMARK(BM_MoleculeDerivation)->Arg(100)->Arg(400);

void BM_MoleculeDerivationOneRoot(benchmark::State& state) {
  // One state's molecule, engine set-up included: the cost should follow
  // the atoms reachable from the root, so /400 stays close to /100 although
  // the occurrence is four times larger.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  const std::vector<mad::AtomId> roots = {f.mt->molecules()[0].root()};
  mad::DerivationStats stats;
  for (auto _ : state) {
    auto molecules = mad::DeriveMoleculesForRoots(*f.db, f.mt->description(),
                                                  roots, {}, &stats);
    if (!molecules.ok()) {
      state.SkipWithError(molecules.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&molecules);
  }
  state.counters["atoms_visited"] = static_cast<double>(stats.atoms_visited);
}
BENCHMARK(BM_MoleculeDerivationOneRoot)->Arg(100)->Arg(400);

void BM_SigmaRestrict(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000}));
  for (auto _ : state) {
    auto result = mad::RestrictMolecules(*f.db, *f.mt, pred, "sigma");
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SigmaRestrict)->Arg(20)->Arg(100)->Arg(400);

void BM_SigmaRestrictDeepQualification(benchmark::State& state) {
  // Qualification over a leaf node: existential scan of every point group.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = e::Gt(e::Attr("point", "x"), e::Lit(990.0));
  for (auto _ : state) {
    auto result = mad::RestrictMolecules(*f.db, *f.mt, pred, "sigma");
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SigmaRestrictDeepQualification)->Arg(20)->Arg(100)->Arg(400);

void BM_PiProjection(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  mad::MoleculeProjectionSpec spec;
  spec.keep_labels = {"state", "area", "edge"};
  spec.attributes["state"] = {"name"};
  for (auto _ : state) {
    auto result = mad::ProjectMolecules(*f.db, *f.mt, spec, "pi");
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_PiProjection)->Arg(20)->Arg(100)->Arg(400);

void BM_OmegaDeltaPsi(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto big = mad::RestrictMolecules(
      *f.db, *f.mt, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{800})),
      "big");
  auto small = mad::RestrictMolecules(
      *f.db, *f.mt, e::Lt(e::Attr("state", "hectare"), e::Lit(int64_t{1400})),
      "small");
  if (!big.ok() || !small.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto u = mad::UnionMolecules(*big, *small, "u");
    auto d = mad::DifferenceMolecules(*big, *small, "d");
    auto i = mad::IntersectMolecules(*big, *small, "i");
    benchmark::DoNotOptimize(&u);
    benchmark::DoNotOptimize(&d);
    benchmark::DoNotOptimize(&i);
  }
}
BENCHMARK(BM_OmegaDeltaPsi)->Arg(20)->Arg(100)->Arg(400);

void BM_UnionMolecules(benchmark::State& state) {
  // Ω of two whole map occurrences derived apart: every right molecule
  // equals a left one, so each is hashed and compared in full.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto other = mad::DefineMoleculeType(*f.db, "other", f.mt->description());
  if (!other.ok()) {
    state.SkipWithError(other.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto u = mad::UnionMolecules(*f.mt, *other, "u");
    benchmark::DoNotOptimize(&u);
  }
}
BENCHMARK(BM_UnionMolecules)->Arg(400);

void BM_DifferenceMolecules(benchmark::State& state) {
  // Δ of the same two occurrences: every left molecule is found and dropped.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto other = mad::DefineMoleculeType(*f.db, "other", f.mt->description());
  if (!other.ok()) {
    state.SkipWithError(other.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto d = mad::DifferenceMolecules(*f.mt, *other, "d");
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_DifferenceMolecules)->Arg(400);

void BM_CartesianProductX(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  // Keep operands small: X is quadratic and mutates the database.
  auto left = mad::RestrictMolecules(
      *f.db, *f.mt, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1500})),
      "left");
  auto right = mad::RestrictMolecules(
      *f.db, *f.mt, e::Lt(e::Attr("state", "hectare"), e::Lit(int64_t{300})),
      "right");
  if (!left.ok() || !right.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  int run = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    std::string name = mad::StrCat({"x", std::to_string(++run)});
    auto x = mad::CartesianProductMolecules(*f.db, *left, *right, name);
    if (!x.ok()) {
      state.SkipWithError(x.status().ToString().c_str());
      return;
    }
    pairs = x->size();
    state.PauseTiming();
    auto s = f.db->DropAtomType(name);  // pair type + links
    benchmark::DoNotOptimize(&s);
    state.ResumeTiming();
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_CartesianProductX)->Arg(20)->Arg(100);

void BM_Propagation(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto big = mad::RestrictMolecules(
      *f.db, *f.mt, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "to_prop");
  if (!big.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  int run = 0;
  for (auto _ : state) {
    std::string name = "prop" + std::to_string(++run);
    auto prop = mad::PropagateMoleculeType(*f.db, *big, name);
    if (!prop.ok()) {
      state.SkipWithError(prop.status().ToString().c_str());
      return;
    }
    state.PauseTiming();
    for (const mad::MoleculeNode& node : prop->description().nodes()) {
      auto s = f.db->DropAtomType(node.type_name);
      benchmark::DoNotOptimize(&s);
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Propagation)->Arg(20)->Arg(100);

/// The molecule structure the Session rows select, as MQL.
constexpr char kSelectAll[] = "SELECT ALL FROM state-area-edge-point;";

void BM_SessionRepeatedSelectAll(benchmark::State& state) {
  // One session repeating an unseeded SELECT, parse to Π: after the first
  // statement each one derives on the session's kept snapshot instead of
  // growing it again over every state's reach.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  mad::mql::Session session(f.db.get());
  for (auto _ : state) {
    auto result = session.Execute(kSelectAll);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SessionRepeatedSelectAll)->Arg(100)->Arg(400);

void BM_SessionOneRootAfterSelectAll(benchmark::State& state) {
  // A one-root SELECT, seeded from the index on state.name, on a session
  // holding a kept snapshot of every state's molecule: it costs the root's
  // reach, not the kept snapshot, so /400 stays close to /100.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  mad::Status indexed = f.db->CreateIndex("state", "name");
  if (!indexed.ok() && indexed.code() != mad::StatusCode::kAlreadyExists) {
    state.SkipWithError(indexed.ToString().c_str());
    return;
  }
  auto states = f.db->GetAtomType("state");
  if (!states.ok() || (*states)->occurrence().empty()) {
    state.SkipWithError("no state atoms");
    return;
  }
  const std::string query =
      "SELECT ALL FROM state-area-edge-point WHERE state.name = " +
      (*states)->occurrence().atoms().front().values[0].ToString() + ";";
  mad::mql::Session session(f.db.get());
  auto all = session.Execute(kSelectAll);
  if (!all.ok()) {
    state.SkipWithError(all.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto result = session.Execute(query);
    if (!result.ok() || result->molecules->size() != 1) {
      state.SkipWithError("the one-root SELECT failed");
      return;
    }
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SessionOneRootAfterSelectAll)->Arg(100)->Arg(400);

void BM_RenderMoleculeType(benchmark::State& state) {
  // The server's render of a SELECT ALL over the map: the first 32
  // molecules, Fig. 2 style, atoms read at the statement's view.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  const mad::ReadView view{f.db->current_epoch(), 0};
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    mad::text::AppendMoleculeType(*f.db, *f.mt, 32, view, &out);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RenderMoleculeType)->Arg(100)->Arg(400);

void BM_Crc32(benchmark::State& state) {
  // One frame checksum: a PING-sized payload and a geo_scan RESULT.
  std::string payload(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mad::Crc32(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(24576);

const bool kHeaderPrinted = [] {
  std::cout << "==== PERF-OPS: molecule algebra operator scaling (Σ Π Ω Δ Ψ "
               "X, prop) ====\n\n";
  return true;
}();

}  // namespace
