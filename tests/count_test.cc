// COUNT(label) qualification: molecule-level component counts in
// restriction predicates, through the algebra and through MQL.

#include <gtest/gtest.h>

#include <set>

#include "expr/eval.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/session.h"
#include "workload/geo.h"

namespace mad {
namespace e = expr;
namespace {

class CountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"point", "edge", "area", "state", "net", "river"},
        {{"edge-point", "point", "edge", false},
         {"area-edge", "edge", "area", false},
         {"state-area", "area", "state", false},
         {"net-edge", "edge", "net", false},
         {"river-net", "net", "river", false}});
    ASSERT_TRUE(md.ok());
    auto mt = DefineMoleculeType(db_, "pn", *md);
    ASSERT_TRUE(mt.ok());
    pn_ = std::make_unique<MoleculeType>(*std::move(mt));
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
  std::unique_ptr<MoleculeType> pn_;
};

TEST_F(CountTest, ExprToString) {
  auto pred = e::Ge(e::Count("edge"), e::Lit(int64_t{4}));
  EXPECT_EQ(pred->ToString(), "(COUNT(edge) >= 4)");
}

TEST_F(CountTest, CountRejectedOutsideMoleculeScope) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("x", DataType::kInt64).ok());
  Atom atom{AtomId{1}, {Value(int64_t{1})}};
  auto result =
      e::EvalOnAtom(*e::Gt(e::Count("edge"), e::Lit(int64_t{0})), "t", s, atom);
  EXPECT_FALSE(result.ok());
}

TEST_F(CountTest, RestrictByComponentCount) {
  // Only point 'pn' meets four edges.
  auto hubs = RestrictMolecules(
      db_, *pn_, e::Ge(e::Count("edge"), e::Lit(int64_t{4})), "hubs");
  ASSERT_TRUE(hubs.ok()) << hubs.status();
  EXPECT_EQ(RootNames(*hubs), std::set<std::string>{"pn"});

  // Points on no river at all.
  auto inland = RestrictMolecules(
      db_, *pn_, e::Eq(e::Count("river"), e::Lit(int64_t{0})), "inland");
  ASSERT_TRUE(inland.ok());
  EXPECT_GT(inland->size(), 0u);
  size_t river_idx = *pn_->description().NodeIndex("river");
  for (MoleculeView m : inland->molecules()) {
    EXPECT_TRUE(m.AtomsOf(river_idx).empty());
  }
}

TEST_F(CountTest, CountCombinesWithAttributePredicates) {
  // Border points that touch at least two states AND lie on the Parana:
  // 'pn' (4 states) and 'p2' (endpoint of e1 on SP/Parana and e12 on SC).
  auto result = RestrictMolecules(
      db_, *pn_,
      e::And(e::Ge(e::Count("state"), e::Lit(int64_t{2})),
             e::Eq(e::Attr("river", "name"), e::Lit("Parana"))),
      "tripoints");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(RootNames(*result), (std::set<std::string>{"pn", "p2"}));

  // Arithmetic over counts: twice the river count is below the edge count.
  auto arith = RestrictMolecules(
      db_, *pn_,
      e::Lt(e::Mul(e::Count("river"), e::Lit(int64_t{2})), e::Count("edge")),
      "arith");
  ASSERT_TRUE(arith.ok()) << arith.status();
  EXPECT_GT(arith->size(), 0u);
}

TEST_F(CountTest, CountValidatesQualifier) {
  EXPECT_FALSE(RestrictMolecules(db_, *pn_,
                                 e::Gt(e::Count("bogus"), e::Lit(int64_t{0})),
                                 "x")
                   .ok());
}

TEST_F(CountTest, MqlCountSyntax) {
  mql::Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM point-edge-(area-state,net-river) "
      "WHERE COUNT(edge) >= 4;");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->molecules->size(), 1u);
  EXPECT_EQ(result->molecules->molecules()[0].root(), ids_.points["pn"]);

  // COUNT parses inside compound predicates and EXPLAIN.
  auto plan = session.Execute(
      "EXPLAIN SELECT ALL FROM point-edge-(area-state,net-river) "
      "WHERE COUNT(state) >= 2 AND point.x > 0;");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->message.find("Sigma[((COUNT(state) >= 2) AND (point.x > "
                               "0))]"),
            std::string::npos)
      << plan->message;

  EXPECT_FALSE(session.Execute("SELECT ALL FROM state WHERE COUNT();").ok());
  EXPECT_FALSE(
      session.Execute("SELECT ALL FROM state WHERE COUNT(1) > 0;").ok());
}

TEST_F(CountTest, ForAllQuantification) {
  // FORALL is the dual of the existential default: molecules where every
  // edge lies on the Parana course vs molecules where some edge does.
  size_t net_idx = *pn_->description().NodeIndex("net");
  auto all_on_net = RestrictMolecules(
      db_, *pn_,
      e::ForAll("edge", e::Ne(e::Attr("edge", "name"), e::Lit("e12"))),
      "no_e12");
  ASSERT_TRUE(all_on_net.ok()) << all_on_net.status();
  // The complement through NOT + existential: NOT (exists edge named e12).
  auto complement = RestrictMolecules(
      db_, *pn_, e::Not(e::Eq(e::Attr("edge", "name"), e::Lit("e12"))),
      "not_e12");
  ASSERT_TRUE(complement.ok());
  // FORALL(edge != x) == NOT EXISTS(edge == x) — De Morgan over groups.
  EXPECT_EQ(all_on_net->size(), complement->size());
  (void)net_idx;
}

TEST_F(CountTest, ForAllIsVacuouslyTrueOnEmptyGroups) {
  // Molecules without any river trivially satisfy FORALL river (...).
  auto result = RestrictMolecules(
      db_, *pn_,
      e::And(e::Eq(e::Count("river"), e::Lit(int64_t{0})),
             e::ForAll("river", e::Eq(e::Attr("river", "name"), e::Lit("x")))),
      "vacuous");
  ASSERT_TRUE(result.ok()) << result.status();
  auto no_river = RestrictMolecules(
      db_, *pn_, e::Eq(e::Count("river"), e::Lit(int64_t{0})), "no_river");
  ASSERT_TRUE(no_river.ok());
  EXPECT_EQ(result->size(), no_river->size());
}

TEST_F(CountTest, ForAllValidation) {
  // Predicate referencing another node is rejected.
  EXPECT_FALSE(RestrictMolecules(
                   db_, *pn_,
                   e::ForAll("edge", e::Eq(e::Attr("river", "name"),
                                           e::Lit("Parana"))),
                   "x")
                   .ok());
  // Unknown label.
  EXPECT_FALSE(
      RestrictMolecules(db_, *pn_,
                        e::ForAll("bogus", e::Lit(true)), "x")
          .ok());
  // Nested FORALL unsupported.
  EXPECT_FALSE(RestrictMolecules(
                   db_, *pn_,
                   e::ForAll("edge", e::ForAll("edge", e::Lit(true))), "x")
                   .ok());
  // FORALL outside molecule scope.
  Schema s;
  ASSERT_TRUE(s.AddAttribute("x", DataType::kInt64).ok());
  Atom atom{AtomId{1}, {Value(int64_t{1})}};
  EXPECT_FALSE(
      e::EvalOnAtom(*e::ForAll("edge", e::Lit(true)), "t", s, atom).ok());
}

TEST_F(CountTest, MqlForAllSyntax) {
  mql::Session session(&db_);
  // Points all of whose edges belong to the Parana net: with COUNT guard
  // so points with no edges don't qualify vacuously.
  auto result = session.Execute(
      "SELECT ALL FROM point-edge-(area-state,net-river) "
      "WHERE COUNT(edge) >= 1 AND FORALL edge (edge.name != 'e12');");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->molecules->size(), 0u);
  EXPECT_LT(result->molecules->size(), 12u);

  auto plan = session.Execute(
      "EXPLAIN SELECT ALL FROM point-edge-(area-state,net-river) "
      "WHERE FORALL edge (edge.name != 'e12');");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->message.find("FORALL edge (edge.name != 'e12')"),
            std::string::npos)
      << plan->message;

  EXPECT_FALSE(session.Execute("SELECT ALL FROM state WHERE FORALL;").ok());
  EXPECT_FALSE(
      session.Execute("SELECT ALL FROM state WHERE FORALL x y;").ok());
}

}  // namespace
}  // namespace mad
