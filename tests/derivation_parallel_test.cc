// Determinism of the derivation engine against the Fig. 2 geo descriptions
// and a shared-subobject BOM DAG: every derived molecule satisfies mv_graph,
// and molecules come out in root order.
//
// The engine grows its snapshot from the roots each call derives, so the
// differential tests below also pin that a root subset, a reused engine and
// an epoch-pinned view all derive exactly what a whole-occurrence run does:
// same molecules, same atom order within each node group, same link order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "molecule/derivation.h"
#include "molecule/description.h"
#include "support/molecule_validator.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace {

/// Order-sensitive equality, stricter than Molecule::operator== (which is
/// set-semantic).
bool ExactlyEqual(const Molecule& a, const Molecule& b) {
  if (a.root() != b.root() || a.node_count() != b.node_count()) return false;
  for (size_t i = 0; i < a.node_count(); ++i) {
    if (!std::ranges::equal(a.AtomsOf(i), b.AtomsOf(i))) return false;
  }
  return std::ranges::equal(a.links(), b.links());
}

void ExpectValidMolecules(const Database& db, const MoleculeDescription& md) {
  auto molecules = DeriveMolecules(db, md);
  ASSERT_TRUE(molecules.ok()) << molecules.status();
  ASSERT_FALSE(molecules->empty());
  for (size_t i = 0; i < molecules->size(); ++i) {
    EXPECT_TRUE(ValidateMolecule(db, md, (*molecules)[i]).ok())
        << "molecule " << i;
  }
}

MoleculeDescription GeoChain(const Database& db) {
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  EXPECT_TRUE(md.ok()) << md.status();
  return *std::move(md);
}

// point-edge-(area-state,net-river): branches plus conjunctive reverse
// traversals — the hardest Fig. 2 shape.
MoleculeDescription GeoBranching(const Database& db) {
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"point", "edge", "area", "state", "net", "river"},
      {{"edge-point", "point", "edge", false},
       {"area-edge", "edge", "area", false},
       {"state-area", "area", "state", false},
       {"net-edge", "edge", "net", false},
       {"river-net", "net", "river", false}});
  EXPECT_TRUE(md.ok()) << md.status();
  return *std::move(md);
}

/// A shared-subobject BOM DAG, generated into `db`, and its two-level
/// super-component view over the reflexive composition link (stored
/// <super, sub>, so forward traversal descends).
MoleculeDescription SharedBomDag(Database& db) {
  workload::BomScale scale;
  scale.roots = 12;
  scale.depth = 4;
  scale.fanout = 3;
  scale.share_fraction = 0.4;  // force shared subobjects
  auto stats = workload::GenerateBom(db, scale);
  EXPECT_TRUE(stats.ok()) << stats.status();
  auto md = MoleculeDescription::Create(
      db,
      {{"part", "part", std::nullopt},
       {"part", "sub", std::nullopt},
       {"part", "subsub", std::nullopt}},
      {{"composition", "part", "sub", false},
       {"composition", "sub", "subsub", false}});
  EXPECT_TRUE(md.ok()) << md.status();
  return *std::move(md);
}

TEST(DerivationTest, GeoChainMoleculesAreValid) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  ExpectValidMolecules(db, GeoChain(db));
}

TEST(DerivationTest, GeoBranchingMoleculesAreValid) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  ExpectValidMolecules(db, GeoBranching(db));
}

TEST(DerivationTest, SharedBomDagMoleculesAreValid) {
  Database db("BOM_DB");
  ExpectValidMolecules(db, SharedBomDag(db));
}

TEST(DerivationTest, ForRootsKeepsCallerOrder) {
  Database db("BOM_DB");
  workload::BomScale scale;
  scale.roots = 8;
  scale.depth = 3;
  auto stats = workload::GenerateBom(db, scale);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto md = MoleculeDescription::Create(
      db, {{"part", "part", std::nullopt}, {"part", "sub", std::nullopt}},
      {{"composition", "part", "sub", false}});
  ASSERT_TRUE(md.ok()) << md.status();

  // Request roots in reverse order: molecules must follow the request order.
  std::vector<AtomId> roots(stats->roots.rbegin(), stats->roots.rend());
  auto molecules = DeriveMoleculesForRoots(db, *md, roots);
  ASSERT_TRUE(molecules.ok()) << molecules.status();
  ASSERT_EQ(molecules->size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ((*molecules)[i].root(), roots[i]) << "slot " << i;
  }
}

// ---- Root-subset and snapshot-reuse differentials -------------------------

/// Ids of the root atom type in occurrence order.
std::vector<AtomId> RootIds(const Database& db, const MoleculeDescription& md) {
  std::vector<AtomId> ids;
  auto at = db.GetAtomType(md.root_node().type_name);
  EXPECT_TRUE(at.ok()) << at.status();
  if (!at.ok()) return ids;
  for (const Atom& atom : (*at)->occurrence().atoms()) ids.push_back(atom.id);
  return ids;
}

/// Every other root, back to front, plus the last one requested again: out
/// of occurrence order, sparse, and with a duplicate.
std::vector<AtomId> SparseSubset(const std::vector<AtomId>& roots) {
  std::vector<AtomId> subset;
  for (size_t i = roots.size(); i > 0; i -= std::min<size_t>(i, 2)) {
    subset.push_back(roots[i - 1]);
  }
  if (!subset.empty()) subset.push_back(subset.back());
  return subset;
}

void ExpectSameMolecules(const std::vector<Molecule>& expected,
                         const std::vector<Molecule>& actual,
                         const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(ExactlyEqual(expected[i], actual[i]))
        << what << ": molecule " << i << " differs";
  }
}

void ExpectSameCounters(const DerivationStats& expected,
                        const DerivationStats& actual,
                        const std::string& what) {
  EXPECT_EQ(actual.roots, expected.roots) << what;
  EXPECT_EQ(actual.atoms_visited, expected.atoms_visited) << what;
  EXPECT_EQ(actual.links_scanned, expected.links_scanned) << what;
}

/// DeriveForRoots(subset) equals DeriveAll filtered to the subset, with the
/// counters of the per-root derivations it is made of — on a fresh engine
/// and on one whose snapshot DeriveAll already completed.
void ExpectSubsetMatchesAll(const Database& db, const MoleculeDescription& md) {
  const std::vector<AtomId> roots = RootIds(db, md);
  ASSERT_GT(roots.size(), 2u);
  const std::vector<AtomId> subset = SparseSubset(roots);
  auto full_engine = DerivationEngine::Create(db, md);
  ASSERT_TRUE(full_engine.ok()) << full_engine.status();
  DerivationStats all_stats;
  auto all = full_engine->DeriveAll(&all_stats);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), roots.size());
  std::map<AtomId, size_t> slot_of;
  for (size_t i = 0; i < all->size(); ++i) slot_of[(*all)[i].root()] = i;
  std::vector<Molecule> filtered;
  for (AtomId root : subset) filtered.push_back((*all)[slot_of.at(root)]);

  // The counters of a subset are the sums of its per-root derivations.
  DerivationStats per_root;
  for (AtomId root : subset) {
    auto single = DerivationEngine::Create(db, md);
    ASSERT_TRUE(single.ok()) << single.status();
    DerivationStats stats;
    auto m = single->DeriveFor(root, &stats);
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_TRUE(ExactlyEqual(*m, (*all)[slot_of.at(root)]))
        << "DeriveFor #" << root.value;
    per_root.roots += stats.roots;
    per_root.atoms_visited += stats.atoms_visited;
    per_root.links_scanned += stats.links_scanned;
  }

  auto fresh = DerivationEngine::Create(db, md);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  DerivationStats fresh_stats;
  auto from_fresh = fresh->DeriveForRoots(subset, &fresh_stats);
  ASSERT_TRUE(from_fresh.ok()) << from_fresh.status();
  ExpectSameMolecules(filtered, *from_fresh, "fresh engine");
  ExpectSameCounters(per_root, fresh_stats, "fresh engine");

  DerivationStats reused_stats;
  auto from_reused = full_engine->DeriveForRoots(subset, &reused_stats);
  ASSERT_TRUE(from_reused.ok()) << from_reused.status();
  ExpectSameMolecules(filtered, *from_reused, "reused engine");
  ExpectSameCounters(per_root, reused_stats, "reused engine");

  // Every root in occurrence order is DeriveAll, counters included.
  auto everything = DerivationEngine::Create(db, md);
  ASSERT_TRUE(everything.ok()) << everything.status();
  DerivationStats every_stats;
  auto listed = everything->DeriveForRoots(roots, &every_stats);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ExpectSameMolecules(*all, *listed, "all roots listed");
  ExpectSameCounters(all_stats, every_stats, "all roots listed");
}

TEST(DerivationSubsetTest, GeoChainSubsetMatchesDeriveAll) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  ExpectSubsetMatchesAll(db, GeoChain(db));
}

TEST(DerivationSubsetTest, GeoBranchingSubsetMatchesDeriveAll) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  ExpectSubsetMatchesAll(db, GeoBranching(db));
}

TEST(DerivationSubsetTest, SharedBomDagSubsetMatchesDeriveAll) {
  Database db("BOM_DB");
  ExpectSubsetMatchesAll(db, SharedBomDag(db));
}

TEST(DerivationSubsetTest, OneEngineServesOverlappingCallsThenDeriveAll) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  const MoleculeDescription md = GeoBranching(db);
  const std::vector<AtomId> roots = RootIds(db, md);
  ASSERT_GT(roots.size(), 4u);
  const std::vector<AtomId> first(roots.begin(), roots.begin() + 3);
  const std::vector<AtomId> second(roots.begin() + 1, roots.begin() + 5);

  auto shared = DerivationEngine::Create(db, md);
  ASSERT_TRUE(shared.ok()) << shared.status();
  for (const auto* request : {&first, &second}) {
    DerivationStats stats;
    auto got = shared->DeriveForRoots(*request, &stats);
    ASSERT_TRUE(got.ok()) << got.status();
    DerivationStats want_stats;
    auto want = DeriveMoleculesForRoots(db, md, *request, {}, &want_stats);
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameMolecules(*want, *got, "overlapping call");
    ExpectSameCounters(want_stats, stats, "overlapping call");
  }
  DerivationStats stats;
  auto got = shared->DeriveAll(&stats);
  ASSERT_TRUE(got.ok()) << got.status();
  DerivationStats want_stats;
  auto want = DeriveMolecules(db, md, {}, &want_stats);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameMolecules(*want, *got, "DeriveAll after subsets");
  ExpectSameCounters(want_stats, stats, "DeriveAll after subsets");
}

/// At a reader's pinned view, another transaction's writes — a new partner
/// atom with its link, a new link between existing atoms, a new root atom
/// and the delete of a linked atom — are invisible, both while pending and
/// after that transaction commits, to subset, all-roots and bad-root calls
/// on one engine.
TEST(DerivationSubsetTest, PinnedViewHidesAnotherTransactionsWrites) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  const MoleculeDescription md = GeoChain(db);
  const std::vector<AtomId> roots = RootIds(db, md);
  const std::vector<AtomId> subset = SparseSubset(roots);

  DerivationStats want_all_stats;
  auto want_all = DeriveMolecules(db, md, {}, &want_all_stats);
  ASSERT_TRUE(want_all.ok()) << want_all.status();
  DerivationStats want_subset_stats;
  auto want_subset =
      DeriveMoleculesForRoots(db, md, subset, {}, &want_subset_stats);
  ASSERT_TRUE(want_subset.ok()) << want_subset.status();

  EpochPin pin;
  {
    ReaderLock lock(db.mutex());
    pin = db.PinEpoch();
  }
  const ReadView view = pin.view();

  const AtomId state = ids->states.begin()->second;
  const AtomId area = ids->areas.begin()->second;
  const AtomId edge = ids->edges.begin()->second;
  // A point the first edge does not reach yet.
  AtomId unlinked_point;
  {
    ReaderLock lock(db.mutex());
    auto link = db.GetLinkType("edge-point");
    ASSERT_TRUE(link.ok()) << link.status();
    const std::vector<AtomId>& reached =
        (*link)->occurrence().Partners(edge, LinkDirection::kForward);
    for (const auto& [name, point] : ids->points) {
      if (std::find(reached.begin(), reached.end(), point) == reached.end()) {
        unlinked_point = point;
        break;
      }
    }
  }
  ASSERT_TRUE(unlinked_point.valid());

  std::unique_ptr<Transaction> writer = db.Begin();
  Transaction* txn = writer.get();
  auto new_area = db.InsertAtom("area", {Value("a"), Value(int64_t{7})}, txn);
  ASSERT_TRUE(new_area.ok()) << new_area.status();
  ASSERT_TRUE(db.InsertLink("state-area", state, *new_area, txn).ok());
  ASSERT_TRUE(db.InsertLink("edge-point", edge, unlinked_point, txn).ok());
  auto new_state = db.InsertAtom("state", {Value("s"), Value(int64_t{9})}, txn);
  ASSERT_TRUE(new_state.ok()) << new_state.status();
  ASSERT_TRUE(db.DeleteAtom("area", area, txn).ok());

  auto check = [&](const std::string& phase) {
    ReaderLock lock(db.mutex());
    DerivationOptions options;
    options.view = view;
    auto engine = DerivationEngine::Create(db, md, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    // The root inserted after the pin is not a root at the view.
    auto pending_root = engine->DeriveForRoots({roots[0], *new_state});
    EXPECT_EQ(pending_root.status().code(), StatusCode::kNotFound) << phase;
    DerivationStats stats;
    auto got_subset = engine->DeriveForRoots(subset, &stats);
    ASSERT_TRUE(got_subset.ok()) << got_subset.status();
    ExpectSameMolecules(*want_subset, *got_subset, "subset " + phase);
    ExpectSameCounters(want_subset_stats, stats, "subset " + phase);
    auto got_all = engine->DeriveAll(&stats);
    ASSERT_TRUE(got_all.ok()) << got_all.status();
    ExpectSameMolecules(*want_all, *got_all, "all " + phase);
    ExpectSameCounters(want_all_stats, stats, "all " + phase);
  };
  check("pending");
  ASSERT_TRUE(writer->Commit().ok());
  check("committed");
}

TEST(DerivationSubsetTest, MixedRootListNamesEveryBadIdAndEngineRecovers) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  const MoleculeDescription md = GeoChain(db);
  const std::vector<AtomId> roots = RootIds(db, md);
  ASSERT_GT(roots.size(), 1u);
  const AtomId wrong_type = ids->areas.begin()->second;  // not a state
  const AtomId missing{987654321};

  auto engine = DerivationEngine::Create(db, md);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto bad = engine->DeriveForRoots({roots[0], wrong_type, roots[1], missing});
  ASSERT_EQ(bad.status().code(), StatusCode::kNotFound);
  std::ostringstream want_message;  // AtomId prints as "#<id>"
  want_message << "atoms " << wrong_type << ", " << missing
               << " are not in root atom type 'state'";
  EXPECT_EQ(bad.status().message(), want_message.str());
  EXPECT_EQ(engine->DeriveFor(missing).status().code(), StatusCode::kNotFound);

  // The failed calls leave the engine able to derive exactly.
  const std::vector<AtomId> good = {roots[1], roots[0]};
  DerivationStats stats;
  auto got = engine->DeriveForRoots(good, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  DerivationStats want_stats;
  auto want = DeriveMoleculesForRoots(db, md, good, {}, &want_stats);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameMolecules(*want, *got, "after bad roots");
  ExpectSameCounters(want_stats, stats, "after bad roots");
  auto all = engine->DeriveAll(&stats);
  ASSERT_TRUE(all.ok()) << all.status();
  auto want_all = DeriveMolecules(db, md, {}, &want_stats);
  ASSERT_TRUE(want_all.ok()) << want_all.status();
  ExpectSameMolecules(*want_all, *all, "DeriveAll after bad roots");
  ExpectSameCounters(want_stats, stats, "DeriveAll after bad roots");
}

}  // namespace
}  // namespace mad
