#include "molecule/operations.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "molecule/derivation.h"
#include "molecule/propagation.h"
#include "support/canonical_key.h"
#include "support/molecule_validator.h"
#include "workload/geo.h"

namespace mad {
namespace e = expr;
namespace {

class MoleculeOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;

    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"state", "area", "edge", "point"},
        {{"state-area", "state", "area", false},
         {"area-edge", "area", "edge", false},
         {"edge-point", "edge", "point", false}});
    ASSERT_TRUE(md.ok()) << md.status();
    auto mt = DefineMoleculeType(db_, "mt_state", *md);
    ASSERT_TRUE(mt.ok()) << mt.status();
    mt_state_ = std::make_unique<MoleculeType>(*std::move(mt));

    auto pn_md = MoleculeDescription::CreateFromTypes(
        db_, {"point", "edge", "area", "state", "net", "river"},
        {{"edge-point", "point", "edge", false},
         {"area-edge", "edge", "area", false},
         {"state-area", "area", "state", false},
         {"net-edge", "edge", "net", false},
         {"river-net", "net", "river", false}});
    ASSERT_TRUE(pn_md.ok()) << pn_md.status();
    auto pn = DefineMoleculeType(db_, "point-neighborhood", *pn_md);
    ASSERT_TRUE(pn.ok());
    pn_ = std::make_unique<MoleculeType>(*std::move(pn));
  }

  std::set<std::string> RootNames(const MoleculeType& mt) {
    std::set<std::string> names;
    const AtomType* at =
        *db_.GetAtomType(mt.description().root_node().type_name);
    size_t idx = *at->description().IndexOf("name");
    for (MoleculeView m : mt.molecules()) {
      names.insert(at->occurrence().Find(m.root())->values[idx].AsString());
    }
    return names;
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<MoleculeType> mt_state_;
  std::unique_ptr<MoleculeType> pn_;
};

// ---- Σ restriction (Def. 10) ------------------------------------------------

TEST_F(MoleculeOpsTest, RestrictByRootAttribute) {
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "big");
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(RootNames(*big), (std::set<std::string>{"BA", "MS", "RS"}));
  // rsd = md (Def. 10): the description is unchanged.
  EXPECT_EQ(big->description(), mt_state_->description());
}

TEST_F(MoleculeOpsTest, RestrictByComponentAttributeIsExistential) {
  // Ch. 4's second example: the neighbourhood of point 'pn'.
  auto result = RestrictMolecules(
      db_, *pn_, e::Eq(e::Attr("point", "name"), e::Lit("pn")), "pn_only");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->molecules()[0].root(), ids_.points["pn"]);

  // mt_state molecules containing point 'pn': SP, MS, MG, GO (their borders
  // meet at pn).
  auto touching = RestrictMolecules(
      db_, *mt_state_, e::Eq(e::Attr("point", "name"), e::Lit("pn")),
      "touching_pn");
  ASSERT_TRUE(touching.ok());
  EXPECT_EQ(RootNames(*touching),
            (std::set<std::string>{"SP", "MS", "MG", "GO"}));
}

TEST_F(MoleculeOpsTest, RestrictWithCompoundPredicate) {
  auto result = RestrictMolecules(
      db_, *mt_state_,
      e::And(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
             e::Ge(e::Attr("state", "hectare"), e::Lit(int64_t{1000}))),
      "big_touching");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RootNames(*result), (std::set<std::string>{"SP", "MS"}));

  auto inverted = RestrictMolecules(
      db_, *mt_state_,
      e::Not(e::Eq(e::Attr("point", "name"), e::Lit("pn"))), "not_touching");
  ASSERT_TRUE(inverted.ok());
  EXPECT_EQ(inverted->size(), 6u);  // 10 - 4
}

TEST_F(MoleculeOpsTest, RestrictCrossNodeComparison) {
  // Exists an area and a state in the molecule with area.hectare >
  // state.hectare? Never (each state's area copies its hectare).
  auto result = RestrictMolecules(
      db_, *mt_state_,
      e::Gt(e::Attr("area", "hectare"), e::Attr("state", "hectare")),
      "mismatch");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
  auto equal = RestrictMolecules(
      db_, *mt_state_,
      e::Eq(e::Attr("area", "hectare"), e::Attr("state", "hectare")), "match");
  ASSERT_TRUE(equal.ok());
  EXPECT_EQ(equal->size(), 10u);
}

TEST_F(MoleculeOpsTest, RestrictValidatesPredicate) {
  EXPECT_FALSE(RestrictMolecules(db_, *mt_state_, nullptr, "x").ok());
  EXPECT_FALSE(RestrictMolecules(db_, *mt_state_,
                                 e::Eq(e::Attr("bogus", "name"), e::Lit("x")),
                                 "x")
                   .ok());
  EXPECT_FALSE(RestrictMolecules(db_, *mt_state_,
                                 e::Eq(e::Attr("state", "bogus"), e::Lit("x")),
                                 "x")
                   .ok());
  // Ambiguous unqualified attribute ('name' occurs in all four nodes).
  EXPECT_FALSE(
      RestrictMolecules(db_, *mt_state_, e::Eq(e::Attr("name"), e::Lit("SP")),
                        "x")
          .ok());
  // Unambiguous unqualified attribute ('hectare' occurs in state and area).
  EXPECT_FALSE(
      RestrictMolecules(db_, *mt_state_,
                        e::Gt(e::Attr("hectare"), e::Lit(int64_t{0})), "x")
          .ok());
}

// ---- Π projection ------------------------------------------------------------

TEST_F(MoleculeOpsTest, ProjectDropsBranch) {
  MoleculeProjectionSpec spec;
  spec.keep_labels = {"point", "edge", "area", "state"};
  auto result = ProjectMolecules(db_, *pn_, spec, "pn_no_rivers");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->description().nodes().size(), 4u);
  EXPECT_EQ(result->description().links().size(), 3u);
  EXPECT_EQ(result->description().root_label(), "point");
  EXPECT_EQ(result->size(), pn_->size());
  // Molecules lost their net/river atoms but kept everything else.
  std::unique_ptr<Molecule> pn_mol;
  for (MoleculeView m : result->molecules()) {
    if (m.root() == ids_.points["pn"]) pn_mol = std::make_unique<Molecule>(m);
  }
  ASSERT_NE(pn_mol, nullptr);
  EXPECT_EQ(pn_mol->atom_count(), 1u + 4u + 4u + 4u);
}

TEST_F(MoleculeOpsTest, ProjectNarrowsAttributes) {
  MoleculeProjectionSpec spec;
  spec.keep_labels = {"state", "area"};
  spec.attributes["state"] = {"name"};
  auto result = ProjectMolecules(db_, *mt_state_, spec, "state_names");
  ASSERT_TRUE(result.ok()) << result.status();
  // hectare is no longer visible on state.
  EXPECT_FALSE(RestrictMolecules(db_, *result,
                                 e::Gt(e::Attr("state", "hectare"),
                                       e::Lit(int64_t{0})),
                                 "x")
                   .ok());
  // name still is.
  auto sp = RestrictMolecules(db_, *result,
                              e::Eq(e::Attr("state", "name"), e::Lit("SP")),
                              "sp");
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->size(), 1u);
}

TEST_F(MoleculeOpsTest, ProjectRejectsInvalidSpecs) {
  MoleculeProjectionSpec drop_root;
  drop_root.keep_labels = {"area", "edge", "point"};
  EXPECT_FALSE(ProjectMolecules(db_, *mt_state_, drop_root, "x").ok());

  MoleculeProjectionSpec disconnect;
  disconnect.keep_labels = {"state", "edge", "point"};  // drops 'area'
  EXPECT_FALSE(ProjectMolecules(db_, *mt_state_, disconnect, "x").ok());

  MoleculeProjectionSpec unknown;
  unknown.keep_labels = {"state", "bogus"};
  EXPECT_FALSE(ProjectMolecules(db_, *mt_state_, unknown, "x").ok());

  MoleculeProjectionSpec narrowing_dropped;
  narrowing_dropped.keep_labels = {"state", "area"};
  narrowing_dropped.attributes["edge"] = {"name"};
  EXPECT_FALSE(ProjectMolecules(db_, *mt_state_, narrowing_dropped, "x").ok());
}

// ---- Ω, Δ, Ψ ------------------------------------------------------------------

TEST_F(MoleculeOpsTest, UnionDifferenceIntersection) {
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Ge(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "big");  // BA MS SP RS
  auto touching = RestrictMolecules(
      db_, *mt_state_, e::Eq(e::Attr("point", "name"), e::Lit("pn")),
      "touching");  // SP MS MG GO
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(touching.ok());

  auto u = UnionMolecules(*big, *touching, "u");
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(RootNames(*u),
            (std::set<std::string>{"BA", "MS", "SP", "RS", "MG", "GO"}));

  auto d = DifferenceMolecules(*big, *touching, "d");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(RootNames(*d), (std::set<std::string>{"BA", "RS"}));

  auto i = IntersectMolecules(*big, *touching, "i");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(RootNames(*i), (std::set<std::string>{"MS", "SP"}));
}

TEST_F(MoleculeOpsTest, UnionDeduplicatesIdenticalMolecules) {
  auto u = UnionMolecules(*mt_state_, *mt_state_, "self");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), mt_state_->size());
}

TEST_F(MoleculeOpsTest, SetOperationsRequireIdenticalDescriptions) {
  EXPECT_FALSE(UnionMolecules(*mt_state_, *pn_, "x").ok());
  EXPECT_FALSE(DifferenceMolecules(*mt_state_, *pn_, "x").ok());
  EXPECT_FALSE(IntersectMolecules(*mt_state_, *pn_, "x").ok());
}

TEST_F(MoleculeOpsTest, IntersectionMatchesPaperRecipe) {
  // Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)) must equal the naive intersection.
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Ge(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
      "big");
  auto touching = RestrictMolecules(
      db_, *mt_state_, e::Eq(e::Attr("point", "name"), e::Lit("pn")),
      "touching");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(touching.ok());
  auto psi = IntersectMolecules(*big, *touching, "psi");
  ASSERT_TRUE(psi.ok());

  std::unordered_set<std::string> right_keys;
  for (MoleculeView m : touching->molecules()) {
    right_keys.insert(reference::CanonicalKey(m));
  }
  std::set<std::string> naive;
  for (MoleculeView m : big->molecules()) {
    if (right_keys.count(reference::CanonicalKey(m)) > 0) {
      naive.insert(reference::CanonicalKey(m));
    }
  }
  std::set<std::string> psi_keys;
  for (MoleculeView m : psi->molecules()) {
    psi_keys.insert(reference::CanonicalKey(m));
  }
  EXPECT_EQ(psi_keys, naive);
}

// ---- X cartesian product -------------------------------------------------------

TEST_F(MoleculeOpsTest, CartesianProductCouplesMolecules) {
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "big");  // 3 molecules
  auto pn_only = RestrictMolecules(
      db_, *pn_, e::Eq(e::Attr("point", "name"), e::Lit("pn")), "pn1");  // 1
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(pn_only.ok());

  auto x = CartesianProductMolecules(db_, *big, *pn_only, "pairs");
  ASSERT_TRUE(x.ok()) << x.status();
  EXPECT_EQ(x->size(), 3u);
  // Description: synthetic pair root + 4 + 6 nodes.
  EXPECT_EQ(x->description().nodes().size(), 11u);
  EXPECT_EQ(x->description().root_node().type_name, "pairs");
  // Label collisions between the two operands were de-collided.
  EXPECT_TRUE(x->description().HasLabel("state"));
  EXPECT_TRUE(x->description().HasLabel("state#2"));

  // Every product molecule is a valid molecule over the enlarged database.
  for (MoleculeView m : x->molecules()) {
    EXPECT_TRUE(ValidateMolecule(db_, x->description(), m).ok());
  }

  // The result can be re-derived from the enlarged database: closure.
  auto rederived = DeriveMolecules(db_, x->description());
  ASSERT_TRUE(rederived.ok());
  EXPECT_EQ(rederived->size(), 3u);
}

TEST_F(MoleculeOpsTest, CartesianProductQualifiesAcrossOperands) {
  auto x = CartesianProductMolecules(db_, *mt_state_, *pn_, "all_pairs");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->size(), 120u);  // 10 x 12

  // Restrict across operand boundaries: state (left operand) vs the right
  // operand's root point, whose label was de-collided to "point#2".
  auto result = RestrictMolecules(
      db_, *x,
      e::And(e::Eq(e::Attr("state", "name"), e::Lit("SP")),
             e::Eq(e::Attr("point#2", "name"), e::Lit("pn"))),
      "sp_pn");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
  // The left operand's own 'point' label keeps existential semantics over
  // the left molecules: SP's border contains point 'pn' too, so qualifying
  // on the *left* label matches every pair whose left molecule is SP's.
  auto left_label = RestrictMolecules(
      db_, *x,
      e::And(e::Eq(e::Attr("state", "name"), e::Lit("SP")),
             e::Eq(e::Attr("point", "name"), e::Lit("pn"))),
      "sp_left");
  ASSERT_TRUE(left_label.ok());
  EXPECT_EQ(left_label->size(), 12u);
}

// ---- prop (Def. 9) and Theorem 2 -------------------------------------------------

TEST_F(MoleculeOpsTest, PropagationMaterialisesRestrictedTypes) {
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "big");
  ASSERT_TRUE(big.ok());
  auto prop = PropagateMoleculeType(db_, *big);
  ASSERT_TRUE(prop.ok()) << prop.status();

  // Renamed atom types exist with restricted occurrences.
  auto state_t = db_.GetAtomType("state@big");
  ASSERT_TRUE(state_t.ok());
  EXPECT_EQ((*state_t)->occurrence().size(), 3u);
  // Same description (schema) as the original (Def. 9).
  EXPECT_EQ((*state_t)->description(),
            (*db_.GetAtomType("state"))->description());
  // Atom identity preserved.
  EXPECT_TRUE((*state_t)->occurrence().Contains(ids_.states["BA"]));

  // Inherited link types exist and are restricted.
  auto sa = db_.GetLinkType("state-area@big");
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ((*sa)->occurrence().size(), 3u);

  // The result set stays intact.
  EXPECT_EQ(prop->size(), 3u);
}

TEST_F(MoleculeOpsTest, Theorem2RederivationAfterPropagation) {
  // mt = a[mname, ltyp(G')](atyp(C')): deriving over the propagated types
  // regenerates exactly the propagated molecule set.
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "big");
  ASSERT_TRUE(big.ok());
  auto prop = PropagateMoleculeType(db_, *big);
  ASSERT_TRUE(prop.ok());

  auto rederived = DeriveMolecules(db_, prop->description());
  ASSERT_TRUE(rederived.ok());
  std::set<std::string> original_keys;
  for (MoleculeView m : prop->molecules()) {
    original_keys.insert(reference::CanonicalKey(m));
  }
  std::set<std::string> rederived_keys;
  for (const Molecule& m : *rederived) {
    rederived_keys.insert(reference::CanonicalKey(m));
  }
  EXPECT_EQ(original_keys, rederived_keys);
}

TEST_F(MoleculeOpsTest, Theorem2HoldsForEveryRestrictionOfPointNeighborhood) {
  // Property sweep: propagate + re-derive every single-molecule restriction.
  for (const auto& [pname, pid] : ids_.points) {
    auto one = RestrictMolecules(
        db_, *pn_, e::Eq(e::Attr("point", "name"), e::Lit(Value(pname))),
        "one_" + pname);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one->size(), 1u) << pname;
    auto prop = PropagateMoleculeType(db_, *one);
    ASSERT_TRUE(prop.ok()) << prop.status();
    auto rederived = DeriveMolecules(db_, prop->description());
    ASSERT_TRUE(rederived.ok());
    ASSERT_EQ(rederived->size(), 1u);
    EXPECT_EQ(reference::CanonicalKey((*rederived)[0]),
              reference::CanonicalKey(prop->molecules()[0]))
        << pname;
  }
}

TEST_F(MoleculeOpsTest, PropagationAppliesAttributeNarrowing) {
  MoleculeProjectionSpec spec;
  spec.keep_labels = {"state", "area"};
  spec.attributes["state"] = {"name"};
  auto projected = ProjectMolecules(db_, *mt_state_, spec, "narrow");
  ASSERT_TRUE(projected.ok());
  auto prop = PropagateMoleculeType(db_, *projected);
  ASSERT_TRUE(prop.ok()) << prop.status();

  auto state_t = db_.GetAtomType("state@narrow");
  ASSERT_TRUE(state_t.ok());
  EXPECT_EQ((*state_t)->description().attribute_count(), 1u);
  EXPECT_EQ((*state_t)->description().attribute(0).name, "name");
  EXPECT_EQ((*state_t)->occurrence().size(), 10u);
}

// ---- Closure chain (Theorem 3) -----------------------------------------------------

TEST_F(MoleculeOpsTest, OperationsConcatenate) {
  // Σ ∘ Π ∘ Σ: operations compose because every result is a molecule type.
  auto big = RestrictMolecules(
      db_, *mt_state_, e::Ge(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
      "s1");
  ASSERT_TRUE(big.ok());
  MoleculeProjectionSpec spec;
  spec.keep_labels = {"state", "area", "edge", "point"};
  spec.attributes["area"] = {"name"};
  auto projected = ProjectMolecules(db_, *big, spec, "s2");
  ASSERT_TRUE(projected.ok());
  auto final_mt = RestrictMolecules(
      db_, *projected, e::Eq(e::Attr("point", "name"), e::Lit("pn")), "s3");
  ASSERT_TRUE(final_mt.ok());
  EXPECT_EQ(RootNames(*final_mt), (std::set<std::string>{"SP", "MS", "MG", "GO"}));
}

}  // namespace
}  // namespace mad
