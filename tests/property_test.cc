// Property-based suites: algebraic laws of the molecule algebra, derivation
// invariants, and recursion dualities, swept over randomized scaled
// databases (TEST_P over generator seeds).

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "algebra/atom_algebra.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "molecule/propagation.h"
#include "molecule/recursive.h"
#include "storage/binary_codec.h"
#include "support/canonical_key.h"
#include "support/molecule_validator.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace e = expr;
namespace {

std::set<std::string> Keys(const MoleculeType& mt) {
  std::set<std::string> keys;
  for (MoleculeView m : mt.molecules()) {
    keys.insert(reference::CanonicalKey(m));
  }
  return keys;
}

template <typename Molecules>
std::set<std::string> Keys(const Molecules& mv) {
  std::set<std::string> keys;
  for (MoleculeView m : mv) keys.insert(reference::CanonicalKey(m));
  return keys;
}

// ---- Molecule algebra laws over randomized geographies -------------------------

class MoleculeLawTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("SCALED");
    workload::GeoScale scale;
    scale.states = 30;
    scale.rivers = 8;
    scale.seed = GetParam();
    auto stats = workload::GenerateScaledGeo(*db_, scale);
    ASSERT_TRUE(stats.ok()) << stats.status();

    auto md = MoleculeDescription::CreateFromTypes(
        *db_, {"state", "area", "edge", "point"},
        {{"state-area", "state", "area", false},
         {"area-edge", "area", "edge", false},
         {"edge-point", "edge", "point", false}});
    ASSERT_TRUE(md.ok()) << md.status();
    auto mt = DefineMoleculeType(*db_, "mt_state", *md);
    ASSERT_TRUE(mt.ok()) << mt.status();
    mt_ = std::make_unique<MoleculeType>(*std::move(mt));

    // Two predicates whose selectivity varies with the seed.
    p_ = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000}));
    q_ = e::Gt(e::Attr("point", "x"), e::Lit(500.0));
  }

  MoleculeType Sigma(const e::ExprPtr& pred, const MoleculeType& mt,
                     const std::string& name) {
    auto result = RestrictMolecules(*db_, mt, pred, name);
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<MoleculeType> mt_;
  e::ExprPtr p_;
  e::ExprPtr q_;
};

TEST_P(MoleculeLawTest, DerivationIsDeterministic) {
  auto again = DefineMoleculeType(*db_, "again", mt_->description());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Keys(*mt_), Keys(*again));
  EXPECT_EQ(mt_->size(), again->size());
}

TEST_P(MoleculeLawTest, OneMoleculePerRootAtom) {
  EXPECT_EQ(mt_->size(), (*db_->GetAtomType("state"))->occurrence().size());
  std::unordered_set<AtomId> roots;
  for (MoleculeView m : mt_->molecules()) {
    EXPECT_TRUE(roots.insert(m.root()).second) << "duplicate root molecule";
  }
}

TEST_P(MoleculeLawTest, EveryDerivedMoleculeValidates) {
  for (MoleculeView m : mt_->molecules()) {
    ASSERT_TRUE(ValidateMolecule(*db_, mt_->description(), m).ok());
  }
}

TEST_P(MoleculeLawTest, ConjunctionEqualsComposition) {
  MoleculeType lhs = Sigma(e::And(p_, q_), *mt_, "pq");
  MoleculeType rhs = Sigma(q_, Sigma(p_, *mt_, "p"), "p_then_q");
  EXPECT_EQ(Keys(lhs), Keys(rhs));
}

TEST_P(MoleculeLawTest, DisjunctionEqualsUnion) {
  MoleculeType lhs = Sigma(e::Or(p_, q_), *mt_, "p_or_q");
  auto rhs = UnionMolecules(Sigma(p_, *mt_, "p"), Sigma(q_, *mt_, "q"), "u");
  ASSERT_TRUE(rhs.ok());
  EXPECT_EQ(Keys(lhs), Keys(*rhs));
}

TEST_P(MoleculeLawTest, NegationEqualsDifference) {
  MoleculeType lhs = Sigma(e::Not(p_), *mt_, "not_p");
  auto rhs = DifferenceMolecules(*mt_, Sigma(p_, *mt_, "p"), "d");
  ASSERT_TRUE(rhs.ok());
  EXPECT_EQ(Keys(lhs), Keys(*rhs));
}

TEST_P(MoleculeLawTest, UnionIsCommutativeAndIdempotent) {
  MoleculeType a = Sigma(p_, *mt_, "a");
  MoleculeType b = Sigma(q_, *mt_, "b");
  auto ab = UnionMolecules(a, b, "ab");
  auto ba = UnionMolecules(b, a, "ba");
  auto aa = UnionMolecules(a, a, "aa");
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  ASSERT_TRUE(aa.ok());
  EXPECT_EQ(Keys(*ab), Keys(*ba));
  EXPECT_EQ(Keys(*aa), Keys(a));
}

TEST_P(MoleculeLawTest, SelfDifferenceIsEmpty) {
  auto d = DifferenceMolecules(*mt_, *mt_, "d");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->empty());
}

TEST_P(MoleculeLawTest, PsiRecipeMatchesNaiveIntersection) {
  MoleculeType a = Sigma(p_, *mt_, "a");
  MoleculeType b = Sigma(q_, *mt_, "b");
  auto psi_ab = IntersectMolecules(a, b, "psi_ab");
  auto psi_ba = IntersectMolecules(b, a, "psi_ba");
  ASSERT_TRUE(psi_ab.ok());
  ASSERT_TRUE(psi_ba.ok());
  EXPECT_EQ(Keys(*psi_ab), Keys(*psi_ba));

  std::set<std::string> naive;
  std::set<std::string> b_keys = Keys(b);
  for (const std::string& key : Keys(a)) {
    if (b_keys.count(key) > 0) naive.insert(key);
  }
  EXPECT_EQ(Keys(*psi_ab), naive);
}

TEST_P(MoleculeLawTest, DeMorganOverMoleculeSets) {
  MoleculeType lhs = Sigma(e::Not(e::And(p_, q_)), *mt_, "l");
  auto rhs = UnionMolecules(Sigma(e::Not(p_), *mt_, "np"),
                            Sigma(e::Not(q_), *mt_, "nq"), "r");
  ASSERT_TRUE(rhs.ok());
  EXPECT_EQ(Keys(lhs), Keys(*rhs));
}

TEST_P(MoleculeLawTest, ProjectionPreservesMoleculeCountAndRoots) {
  MoleculeProjectionSpec spec;
  spec.keep_labels = {"state", "area"};
  auto projected = ProjectMolecules(*db_, *mt_, spec, "proj");
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->size(), mt_->size());
  for (size_t i = 0; i < mt_->size(); ++i) {
    EXPECT_EQ(projected->molecules()[i].root(), mt_->molecules()[i].root());
  }
}

TEST_P(MoleculeLawTest, Theorem2RederivationForRandomRestrictions) {
  MoleculeType restricted = Sigma(p_, *mt_, "to_prop");
  auto prop = PropagateMoleculeType(*db_, restricted);
  ASSERT_TRUE(prop.ok()) << prop.status();
  auto rederived = DeriveMolecules(*db_, prop->description());
  ASSERT_TRUE(rederived.ok());
  EXPECT_EQ(Keys(prop->molecules()), Keys(*rederived));
}

TEST_P(MoleculeLawTest, PropagationPreservesDatabaseConsistency) {
  MoleculeType restricted = Sigma(q_, *mt_, "to_prop2");
  auto prop = PropagateMoleculeType(*db_, restricted);
  ASSERT_TRUE(prop.ok());
  EXPECT_TRUE(db_->CheckConsistency().ok());
}

TEST_P(MoleculeLawTest, SerializationPreservesDerivation) {
  // Clone via the binary checkpoint image; the clone derives an identical
  // molecule set and passes the consistency audit.
  auto clone = CloneDatabase(*db_);
  ASSERT_TRUE(clone.ok()) << clone.status();
  ASSERT_TRUE((*clone)->CheckConsistency().ok());
  auto md = MoleculeDescription::CreateFromTypes(
      **clone, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok());
  auto rederived = DeriveMolecules(**clone, *md);
  ASSERT_TRUE(rederived.ok());
  EXPECT_EQ(Keys(*mt_), Keys(*rederived));
}

TEST_P(MoleculeLawTest, CountQualificationConsistentWithGroupSizes) {
  // Σ[COUNT(point) >= k] must keep exactly the molecules whose point group
  // has >= k atoms, for every k up to the maximum.
  size_t point_idx = *mt_->description().NodeIndex("point");
  size_t max_points = 0;
  for (MoleculeView m : mt_->molecules()) {
    max_points = std::max(max_points, m.AtomsOf(point_idx).size());
  }
  for (size_t k = 0; k <= max_points + 1; ++k) {
    auto result = RestrictMolecules(
        *db_, *mt_,
        e::Ge(e::Count("point"), e::Lit(static_cast<int64_t>(k))), "c");
    ASSERT_TRUE(result.ok());
    size_t expected = 0;
    for (MoleculeView m : mt_->molecules()) {
      if (m.AtomsOf(point_idx).size() >= k) ++expected;
    }
    EXPECT_EQ(result->size(), expected) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoleculeLawTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---- Atom-type algebra laws ---------------------------------------------------

class AtomLawTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("SCALED");
    workload::GeoScale scale;
    scale.states = 40;
    scale.seed = GetParam();
    auto stats = workload::GenerateScaledGeo(*db_, scale);
    ASSERT_TRUE(stats.ok());
  }

  std::set<uint64_t> Ids(const std::string& aname) {
    std::set<uint64_t> ids;
    auto at = db_->GetAtomType(aname);
    EXPECT_TRUE(at.ok());
    for (const Atom& atom : (*at)->occurrence().atoms()) {
      ids.insert(atom.id.value);
    }
    return ids;
  }

  std::unique_ptr<Database> db_;
};

TEST_P(AtomLawTest, RestrictionsCommute) {
  auto p = e::Gt(e::Attr("hectare"), e::Lit(int64_t{500}));
  auto q = e::Lt(e::Attr("hectare"), e::Lit(int64_t{1500}));
  auto pq1 = algebra::Restrict(*db_, "state", p, "s1");
  ASSERT_TRUE(pq1.ok());
  auto pq2 = algebra::Restrict(*db_, "s1", q, "s12");
  ASSERT_TRUE(pq2.ok());
  auto qp1 = algebra::Restrict(*db_, "state", q, "s2");
  ASSERT_TRUE(qp1.ok());
  auto qp2 = algebra::Restrict(*db_, "s2", p, "s21");
  ASSERT_TRUE(qp2.ok());
  EXPECT_EQ(Ids("s12"), Ids("s21"));
}

TEST_P(AtomLawTest, UnionDifferencePartition) {
  auto p = e::Gt(e::Attr("hectare"), e::Lit(int64_t{1000}));
  ASSERT_TRUE(algebra::Restrict(*db_, "state", p, "yes").ok());
  ASSERT_TRUE(algebra::Restrict(*db_, "state", e::Not(p), "no").ok());
  ASSERT_TRUE(algebra::Union(*db_, "yes", "no", "all").ok());
  EXPECT_EQ(Ids("all"), Ids("state"));
  ASSERT_TRUE(algebra::Intersection(*db_, "yes", "no", "none").ok());
  EXPECT_TRUE(Ids("none").empty());
}

TEST_P(AtomLawTest, ProjectThenRestrictEqualsRestrictThenProject) {
  auto p = e::Gt(e::Attr("hectare"), e::Lit(int64_t{700}));
  ASSERT_TRUE(algebra::Project(*db_, "state", {"hectare"}, "proj").ok());
  ASSERT_TRUE(algebra::Restrict(*db_, "proj", p, "proj_then_sigma").ok());
  ASSERT_TRUE(algebra::Restrict(*db_, "state", p, "sigma").ok());
  ASSERT_TRUE(
      algebra::Project(*db_, "sigma", {"hectare"}, "sigma_then_proj").ok());
  EXPECT_EQ(Ids("proj_then_sigma"), Ids("sigma_then_proj"));
}

TEST_P(AtomLawTest, InheritedLinksAreSubsetOfOriginals) {
  auto p = e::Gt(e::Attr("hectare"), e::Lit(int64_t{1000}));
  auto result = algebra::Restrict(*db_, "state", p, "big");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->inherited_link_types.size(), 1u);
  const LinkType* inherited = *db_->GetLinkType(result->inherited_link_types[0]);
  const LinkType* original = *db_->GetLinkType("state-area");
  EXPECT_LE(inherited->occurrence().size(), original->occurrence().size());
  for (const Link& link : inherited->occurrence().links()) {
    EXPECT_TRUE(original->occurrence().Contains(link.first, link.second));
  }
  EXPECT_TRUE(db_->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomLawTest, ::testing::Values(3, 17, 2026));

// ---- Recursion dualities over randomized BOMs ---------------------------------

class RecursionLawTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("BOM");
    workload::BomScale scale;
    scale.depth = 5;
    scale.fanout = 3;
    scale.share_fraction = 0.4;
    scale.seed = GetParam();
    auto stats = workload::GenerateBom(*db_, scale);
    ASSERT_TRUE(stats.ok());
    stats_ = *stats;
  }

  std::unique_ptr<Database> db_;
  workload::BomStats stats_;
};

TEST_P(RecursionLawTest, ExplosionImplosionDuality) {
  // b in explosion(a)  <=>  a in implosion(b).
  RecursiveDescription down{"part", "composition", LinkDirection::kForward, -1};
  RecursiveDescription up{"part", "composition", LinkDirection::kBackward, -1};
  auto explosions = DeriveRecursiveMolecules(*db_, down);
  ASSERT_TRUE(explosions.ok());
  auto implosions = DeriveRecursiveMolecules(*db_, up);
  ASSERT_TRUE(implosions.ok());

  std::map<AtomId, const RecursiveMolecule*> up_by_root;
  for (const RecursiveMolecule& m : *implosions) up_by_root[m.root()] = &m;

  for (const RecursiveMolecule& down_m : *explosions) {
    for (const auto& level : down_m.levels()) {
      for (AtomId member : level) {
        ASSERT_TRUE(up_by_root.at(member)->Contains(down_m.root()))
            << "duality violated";
      }
    }
  }
}

TEST_P(RecursionLawTest, DepthBoundMonotonicity) {
  RecursiveDescription rd{"part", "composition", LinkDirection::kForward, -1};
  size_t previous = 0;
  for (int depth = 0; depth <= 6; ++depth) {
    rd.max_depth = depth;
    auto m = DeriveRecursiveMoleculeFor(*db_, rd, stats_.roots[0]);
    ASSERT_TRUE(m.ok());
    EXPECT_GE(m->atom_count(), previous);
    previous = m->atom_count();
  }
  rd.max_depth = -1;
  auto unbounded = DeriveRecursiveMoleculeFor(*db_, rd, stats_.roots[0]);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(unbounded->atom_count(), previous)
      << "depth 6 must already reach the whole depth-5 BOM";
}

TEST_P(RecursionLawTest, ClosureLinksMatchExplosionSizes) {
  RecursiveDescription rd{"part", "composition", LinkDirection::kForward, -1};
  auto explosions = DeriveRecursiveMolecules(*db_, rd);
  ASSERT_TRUE(explosions.ok());
  size_t expected = 0;
  for (const RecursiveMolecule& m : *explosions) {
    expected += m.atom_count() - 1;  // root excluded
  }
  auto inserted = PropagateClosureLinks(*db_, rd, "closure");
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, expected);
  EXPECT_TRUE(db_->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecursionLawTest,
                         ::testing::Values(5, 21, 777));

}  // namespace
}  // namespace mad
