#include "molecule/derivation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "algebra/atom_algebra.h"
#include "expr/expr.h"
#include "molecule/description.h"
#include "support/canonical_key.h"
#include "support/molecule_validator.h"
#include "util/string_util.h"
#include "workload/geo.h"

namespace mad {
namespace {

class MoleculeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
  }

  /// The Fig. 2 'mt_state' structure: state-area-edge-point.
  MoleculeDescription MtState() {
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"state", "area", "edge", "point"},
        {{"state-area", "state", "area", false},
         {"area-edge", "area", "edge", false},
         {"edge-point", "edge", "point", false}});
    EXPECT_TRUE(md.ok()) << md.status();
    return *md;
  }

  /// The Fig. 2 'point neighborhood' structure:
  /// point-edge-(area-state,net-river).
  MoleculeDescription PointNeighborhood() {
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"point", "edge", "area", "state", "net", "river"},
        {{"edge-point", "point", "edge", false},
         {"area-edge", "edge", "area", false},
         {"state-area", "area", "state", false},
         {"net-edge", "edge", "net", false},
         {"river-net", "net", "river", false}});
    EXPECT_TRUE(md.ok()) << md.status();
    return *md;
  }

  std::set<std::string> NamesOf(const Molecule& m, const MoleculeDescription& md,
                                const std::string& label) {
    std::set<std::string> names;
    size_t idx = *md.NodeIndex(label);
    const AtomType* at = *db_.GetAtomType(md.nodes()[idx].type_name);
    size_t name_idx = *at->description().IndexOf("name");
    for (AtomId id : m.AtomsOf(idx)) {
      names.insert(at->occurrence().Find(id)->values[name_idx].AsString());
    }
    return names;
  }

  std::unique_ptr<Molecule> FindByRoot(const MoleculeSet& mv, AtomId root) {
    for (MoleculeView m : mv) {
      if (m.root() == root) return std::make_unique<Molecule>(m);
    }
    return nullptr;
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
};

// ---- Description validation (md_graph, Def. 5) ----------------------------

TEST_F(MoleculeTest, ChainDescriptionIsValid) {
  MoleculeDescription md = MtState();
  EXPECT_EQ(md.root_label(), "state");
  EXPECT_EQ(md.topo_order().front(), "state");
  EXPECT_EQ(md.ToString(), "state-area-edge-point");
}

TEST_F(MoleculeTest, BranchingDescriptionInfersReverseTraversal) {
  MoleculeDescription md = PointNeighborhood();
  EXPECT_EQ(md.root_label(), "point");
  // edge-point is defined <edge, point> but traversed point->edge.
  EXPECT_TRUE(md.links()[0].reverse);
  // state-area is defined <state, area> but traversed area->state.
  EXPECT_TRUE(md.links()[2].reverse);
  // net-edge is defined <net, edge> but traversed edge->net.
  EXPECT_TRUE(md.links()[3].reverse);
  EXPECT_EQ(md.ToString(), "point-edge-(area-state,net-river)");
}

TEST_F(MoleculeTest, DescriptionRejectsUnknownTypesAndLinks) {
  EXPECT_FALSE(MoleculeDescription::CreateFromTypes(db_, {"bogus"}, {}).ok());
  EXPECT_FALSE(MoleculeDescription::CreateFromTypes(
                   db_, {"state", "area"},
                   {{"bogus-link", "state", "area", false}})
                   .ok());
  // Link type exists but does not connect these types.
  EXPECT_FALSE(MoleculeDescription::CreateFromTypes(
                   db_, {"state", "point"},
                   {{"state-area", "state", "point", false}})
                   .ok());
}

TEST_F(MoleculeTest, DescriptionRejectsNonRootedGraphs) {
  // Two roots (incoherent handled separately).
  EXPECT_FALSE(MoleculeDescription::CreateFromTypes(db_, {"state", "river"}, {}).ok());
  // Single node is fine.
  auto single = MoleculeDescription::CreateFromTypes(db_, {"state"}, {});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->root_label(), "state");
}

TEST_F(MoleculeTest, DescriptionRejectsDuplicateLabels) {
  EXPECT_FALSE(MoleculeDescription::Create(
                   db_,
                   {MoleculeNode{"state", "s", std::nullopt},
                    MoleculeNode{"area", "s", std::nullopt}},
                   {{"state-area", "s", "s", false}})
                   .ok());
}

TEST_F(MoleculeTest, DescriptionRejectsCycleThroughReflexiveLink) {
  Schema part;
  ASSERT_TRUE(part.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(db_.DefineAtomType("part", std::move(part)).ok());
  ASSERT_TRUE(db_.DefineLinkType("composition", "part", "part").ok());
  // A self-loop violates acyclicity: reflexive structures need the
  // recursive molecule extension.
  EXPECT_FALSE(MoleculeDescription::CreateFromTypes(
                   db_, {"part"}, {{"composition", "part", "part", false}})
                   .ok());
}

TEST_F(MoleculeTest, DescriptionValidatesAttributeNarrowing) {
  EXPECT_FALSE(MoleculeDescription::Create(
                   db_,
                   {MoleculeNode{"state", "state",
                                 std::vector<std::string>{"bogus"}}},
                   {})
                   .ok());
  EXPECT_TRUE(MoleculeDescription::Create(
                  db_,
                  {MoleculeNode{"state", "state",
                                std::vector<std::string>{"name"}}},
                  {})
                  .ok());
}

TEST_F(MoleculeTest, ResolveQualifier) {
  MoleculeDescription md = PointNeighborhood();
  ASSERT_TRUE(md.ResolveQualifier("point").ok());
  EXPECT_EQ(*md.ResolveQualifier("river"), *md.NodeIndex("river"));
  EXPECT_FALSE(md.ResolveQualifier("bogus").ok());
}

// ---- Derivation (m_dom, Def. 6) --------------------------------------------

TEST_F(MoleculeTest, MtStateDerivesOneMoleculePerState) {
  auto mt = DefineMoleculeType(db_, "mt_state", MtState());
  ASSERT_TRUE(mt.ok()) << mt.status();
  EXPECT_EQ(mt->size(), 10u);
  for (MoleculeView m : mt->molecules()) {
    EXPECT_TRUE(ValidateMolecule(db_, mt->description(), m).ok());
  }
}

TEST_F(MoleculeTest, SpMoleculeMatchesFigure2) {
  auto mt = DefineMoleculeType(db_, "mt_state", MtState());
  ASSERT_TRUE(mt.ok());
  std::unique_ptr<Molecule> sp = FindByRoot(mt->molecules(), ids_.states["SP"]);
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(NamesOf(*sp, mt->description(), "state"),
            std::set<std::string>{"SP"});
  EXPECT_EQ(NamesOf(*sp, mt->description(), "area"),
            std::set<std::string>{"a7"});
  EXPECT_EQ(NamesOf(*sp, mt->description(), "edge"),
            std::set<std::string>{"e1"});
  EXPECT_EQ(NamesOf(*sp, mt->description(), "point"),
            (std::set<std::string>{"pn", "p2"}));
}

TEST_F(MoleculeTest, SpAndMgMoleculesShareSubobjects) {
  // Fig. 2 lower part: the SP and MG molecules overlap (shared subobjects).
  auto mt = DefineMoleculeType(db_, "mt_state", MtState());
  ASSERT_TRUE(mt.ok());
  std::unique_ptr<Molecule> sp = FindByRoot(mt->molecules(), ids_.states["SP"]);
  std::unique_ptr<Molecule> mg = FindByRoot(mt->molecules(), ids_.states["MG"]);
  ASSERT_NE(sp, nullptr);
  ASSERT_NE(mg, nullptr);
  size_t point_idx = *mt->description().NodeIndex("point");
  EXPECT_TRUE(sp->ContainsAtom(point_idx, ids_.points["pn"]));
  EXPECT_TRUE(mg->ContainsAtom(point_idx, ids_.points["pn"]))
      << "molecules must be allowed to overlap in their atom sets";
}

TEST_F(MoleculeTest, PointNeighborhoodMatchesFigure2) {
  auto mt = DefineMoleculeType(db_, "pn", PointNeighborhood());
  ASSERT_TRUE(mt.ok()) << mt.status();
  EXPECT_EQ(mt->size(), 12u);  // one molecule per point

  std::unique_ptr<Molecule> pn = FindByRoot(mt->molecules(), ids_.points["pn"]);
  ASSERT_NE(pn, nullptr);
  EXPECT_EQ(NamesOf(*pn, mt->description(), "edge"),
            (std::set<std::string>{"e1", "e2", "e3", "e4"}));
  EXPECT_EQ(NamesOf(*pn, mt->description(), "state"),
            (std::set<std::string>{"SP", "MS", "MG", "GO"}));
  EXPECT_EQ(NamesOf(*pn, mt->description(), "river"),
            std::set<std::string>{"Parana"});
  EXPECT_TRUE(ValidateMolecule(db_, mt->description(), *pn).ok());
}

TEST_F(MoleculeTest, SymmetricUseOfLinks) {
  // The same database answers both directions (Ch. 2's flexibility claim):
  // state->...->point and point->...->state, without any schema change.
  auto down = DefineMoleculeType(db_, "down", MtState());
  auto up = DefineMoleculeType(db_, "up", PointNeighborhood());
  ASSERT_TRUE(down.ok());
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(down->size(), 10u);
  EXPECT_EQ(up->size(), 12u);
}

TEST_F(MoleculeTest, DeriveMoleculeForSingleRoot) {
  MoleculeDescription md = MtState();
  auto m = DeriveMoleculeFor(db_, md, ids_.states["SP"]);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->root(), ids_.states["SP"]);
  EXPECT_EQ(m->atom_count(), 5u);  // SP, a7, e1, pn, p2

  // A non-root atom id is rejected.
  EXPECT_EQ(DeriveMoleculeFor(db_, md, ids_.points["pn"]).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MoleculeTest, MoleculeWithEmptyBranches) {
  // A state without area links yields a root-only molecule.
  auto id = db_.InsertAtom("state", {Value("XX"), Value(int64_t{1})});
  ASSERT_TRUE(id.ok());
  auto m = DeriveMoleculeFor(db_, MtState(), *id);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->atom_count(), 1u);
  EXPECT_TRUE(m->links().empty());
  EXPECT_TRUE(ValidateMolecule(db_, MtState(), *m).ok());
}

TEST_F(MoleculeTest, ConjunctiveDiamondSemantics) {
  // Def. 6's `contained` quantifies over ALL incoming directed link types:
  // in a diamond, an atom of the shared sink type belongs to the molecule
  // only if it is linked from contained atoms through BOTH branches.
  Database db("DIAMOND");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(db.DefineAtomType("r", s).ok());
  ASSERT_TRUE(db.DefineAtomType("l1", s).ok());
  ASSERT_TRUE(db.DefineAtomType("l2", s).ok());
  ASSERT_TRUE(db.DefineAtomType("sink", s).ok());
  ASSERT_TRUE(db.DefineLinkType("rl1", "r", "l1").ok());
  ASSERT_TRUE(db.DefineLinkType("rl2", "r", "l2").ok());
  ASSERT_TRUE(db.DefineLinkType("l1s", "l1", "sink").ok());
  ASSERT_TRUE(db.DefineLinkType("l2s", "l2", "sink").ok());

  AtomId r = *db.InsertAtom("r", {Value("r")});
  AtomId a = *db.InsertAtom("l1", {Value("a")});
  AtomId b = *db.InsertAtom("l2", {Value("b")});
  AtomId both = *db.InsertAtom("sink", {Value("both")});
  AtomId only_l1 = *db.InsertAtom("sink", {Value("only_l1")});
  ASSERT_TRUE(db.InsertLink("rl1", r, a).ok());
  ASSERT_TRUE(db.InsertLink("rl2", r, b).ok());
  ASSERT_TRUE(db.InsertLink("l1s", a, both).ok());
  ASSERT_TRUE(db.InsertLink("l2s", b, both).ok());
  ASSERT_TRUE(db.InsertLink("l1s", a, only_l1).ok());

  auto md = MoleculeDescription::CreateFromTypes(db, {"r", "l1", "l2", "sink"},
                                        {{"rl1", "r", "l1", false},
                                         {"rl2", "r", "l2", false},
                                         {"l1s", "l1", "sink", false},
                                         {"l2s", "l2", "sink", false}});
  ASSERT_TRUE(md.ok()) << md.status();
  auto m = DeriveMoleculeFor(db, *md, r);
  ASSERT_TRUE(m.ok());
  size_t sink_idx = *md->NodeIndex("sink");
  EXPECT_TRUE(m->ContainsAtom(sink_idx, both));
  EXPECT_FALSE(m->ContainsAtom(sink_idx, only_l1))
      << "an atom reachable through only one of two incoming edges must be "
         "excluded (∀-semantics of `contained`)";
  EXPECT_TRUE(ValidateMolecule(db, *md, *m).ok());
}

TEST_F(MoleculeTest, CanonicalKeyIsOrderInsensitive) {
  Molecule a(AtomId{1}, 2);
  a.AddAtom(0, AtomId{1});
  a.AddAtom(1, AtomId{5});
  a.AddAtom(1, AtomId{3});
  a.AddLink({0, AtomId{1}, AtomId{5}});
  a.AddLink({0, AtomId{1}, AtomId{3}});

  Molecule b(AtomId{1}, 2);
  b.AddAtom(0, AtomId{1});
  b.AddAtom(1, AtomId{3});
  b.AddAtom(1, AtomId{5});
  b.AddLink({0, AtomId{1}, AtomId{3}});
  b.AddLink({0, AtomId{1}, AtomId{5}});

  EXPECT_EQ(reference::CanonicalKey(a), reference::CanonicalKey(b));
  EXPECT_EQ(a, b);

  Molecule c(AtomId{1}, 2);
  c.AddAtom(0, AtomId{1});
  c.AddAtom(1, AtomId{3});
  c.AddLink({0, AtomId{1}, AtomId{3}});
  EXPECT_NE(reference::CanonicalKey(a), reference::CanonicalKey(c));
}

TEST_F(MoleculeTest, ValidateMoleculeRejectsCorruption) {
  MoleculeDescription md = MtState();
  auto m = DeriveMoleculeFor(db_, md, ids_.states["SP"]);
  ASSERT_TRUE(m.ok());

  // Foreign atom injected into a node group.
  Molecule bad = *m;
  bad.AddAtom(*md.NodeIndex("area"), ids_.areas["a1"]);
  EXPECT_FALSE(ValidateMolecule(db_, md, bad).ok());

  // Fabricated link not present in the database.
  Molecule bad2 = *m;
  bad2.AddLink(MoleculeLink{0, ids_.states["SP"], ids_.areas["a1"]});
  EXPECT_FALSE(ValidateMolecule(db_, md, bad2).ok());
}

TEST_F(MoleculeTest, DerivationOverDerivedAtomTypesViaInheritedLinks) {
  // Theorem 1's purpose: algebra results stay usable for molecule
  // derivation. Restrict states, then derive molecules from the result.
  namespace a = algebra;
  auto big = algebra::Restrict(
      db_, "state", expr::Gt(expr::Attr("hectare"), expr::Lit(int64_t{1000})),
      "big_states");
  ASSERT_TRUE(big.ok());
  auto md = MoleculeDescription::CreateFromTypes(
      db_, {"big_states", "area"},
      {{"state-area@big_states", "big_states", "area", false}});
  ASSERT_TRUE(md.ok()) << md.status();
  auto mt = DefineMoleculeType(db_, "big_mols", *md);
  ASSERT_TRUE(mt.ok());
  EXPECT_EQ(mt->size(), 3u);  // BA, MS, RS
  for (MoleculeView m : mt->molecules()) {
    EXPECT_EQ(m.atom_count(), 2u);  // state + its area
  }
}

TEST_F(MoleculeTest, ForRootsReportsEveryInvalidRootAtOnce) {
  MoleculeDescription md = MtState();
  // One atom of a non-root type and one unknown id, mixed with a valid
  // root: validation happens before any derivation and names both bad ids.
  AtomId valid_root = ids_.states.at("BA");
  AtomId wrong_type = ids_.points.at("pn");
  AtomId unknown{999999};
  auto result = DeriveMoleculesForRoots(
      db_, md, {valid_root, wrong_type, unknown});
  ASSERT_FALSE(result.ok());
  Status status = result.status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  std::string message = status.message();
  EXPECT_NE(message.find(StrCat({"#", std::to_string(wrong_type.value)})),
            std::string::npos)
      << message;
  EXPECT_NE(message.find(StrCat({"#", std::to_string(unknown.value)})),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("state"), std::string::npos) << message;

  // A single bad root keeps the singular wording.
  auto single = DeriveMoleculesForRoots(db_, md, {wrong_type});
  ASSERT_FALSE(single.ok());
  EXPECT_NE(single.status().message().find("atom #"), std::string::npos)
      << single.status().message();
}

}  // namespace
}  // namespace mad
