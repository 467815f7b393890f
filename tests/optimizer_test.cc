#include "mql/optimizer.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/parser.h"
#include "mql/session.h"
#include "mql/translator.h"
#include "support/canonical_key.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace e = mad::expr;
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"state", "area", "edge", "point"},
        {{"state-area", "state", "area", false},
         {"area-edge", "area", "edge", false},
         {"edge-point", "edge", "point", false}});
    ASSERT_TRUE(md.ok());
    md_ = std::make_unique<MoleculeDescription>(*std::move(md));
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<MoleculeDescription> md_;
};

TEST_F(OptimizerTest, ReferencedNodesClassification) {
  auto root_ref = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1}));
  auto leaf_ref = e::Eq(e::Attr("point", "name"), e::Lit("pn"));
  auto mixed = e::Gt(e::Attr("state", "hectare"), e::Attr("area", "hectare"));
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *root_ref), (std::vector<size_t>{0}));
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *leaf_ref), (std::vector<size_t>{3}));
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *mixed),
            (std::vector<size_t>{0, 1}));
  // Unqualified 'x' resolves uniquely to point.
  EXPECT_EQ(*ReferencedNodes(db_, *md_, *e::Gt(e::Attr("x"), e::Lit(0.0))),
            (std::vector<size_t>{3}));
  // COUNT and FORALL bind their quantified node even without attribute
  // references underneath.
  EXPECT_EQ(*ReferencedNodes(db_, *md_,
                             *e::Ge(e::Count("point"), e::Lit(int64_t{2}))),
            (std::vector<size_t>{3}));
  EXPECT_EQ(*ReferencedNodes(
                db_, *md_,
                *e::ForAll("point", e::Gt(e::Attr("point", "x"),
                                          e::Attr("area", "hectare")))),
            (std::vector<size_t>{1, 3}));
  // Constant predicates reference nothing.
  EXPECT_TRUE(ReferencedNodes(db_, *md_, *e::Lit(true))->empty());
  // Unknown references surface as errors.
  EXPECT_FALSE(ReferencedNodes(db_, *md_, *e::Attr("bogus", "name")).ok());
}

TEST_F(OptimizerTest, SplitsConjunctionPerNode) {
  auto pred = e::And(
      e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
      e::And(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
             e::Ne(e::Attr("state", "name"), e::Lit("XX"))));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 2u);
  EXPECT_EQ(plan->node_filters[0].node_index, 0u);
  EXPECT_EQ(plan->node_filters[0].predicate->ToString(),
            "((state.hectare > 900) AND (state.name != 'XX'))");
  EXPECT_EQ(plan->node_filters[1].node_index, 3u);
  EXPECT_EQ(plan->node_filters[1].predicate->ToString(),
            "(point.name = 'pn')");
  EXPECT_EQ(plan->residual, nullptr);
  EXPECT_TRUE(plan->HasPushdown());
}

TEST_F(OptimizerTest, MultiNodeDisjunctionStaysResidual) {
  auto pred = e::Or(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
                    e::Eq(e::Attr("point", "name"), e::Lit("pn")));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->node_filters.empty());
  ASSERT_NE(plan->residual, nullptr);
  EXPECT_EQ(plan->residual->ToString(), pred->ToString());
  EXPECT_FALSE(plan->HasPushdown());
}

TEST_F(OptimizerTest, SingleNodeDisjunctionIsPushed) {
  // A disjunction confined to one node is still decidable on that node.
  auto pred = e::Or(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
                    e::Gt(e::Attr("point", "x"), e::Lit(100.0)));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 1u);
  EXPECT_EQ(plan->node_filters[0].node_index, 3u);
  EXPECT_EQ(plan->node_filters[0].predicate->ToString(), pred->ToString());
  EXPECT_EQ(plan->residual, nullptr);
}

TEST_F(OptimizerTest, CountConjunctIsPushedToItsNode) {
  auto pred = e::And(e::Ge(e::Count("point"), e::Lit(int64_t{2})),
                     e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{0})));
  auto plan = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->node_filters.size(), 2u);
  EXPECT_EQ(plan->node_filters[0].node_index, 0u);
  EXPECT_EQ(plan->node_filters[1].node_index, 3u);
  EXPECT_EQ(plan->node_filters[1].predicate->ToString(),
            "(COUNT(point) >= 2)");
  EXPECT_EQ(plan->residual, nullptr);
}

TEST_F(OptimizerTest, ConstantPredicateStaysResidual) {
  auto plan = PlanPredicatePushdown(db_, *md_, e::Lit(true));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->node_filters.empty());
  ASSERT_NE(plan->residual, nullptr);
  EXPECT_FALSE(plan->HasPushdown());
}

TEST_F(OptimizerTest, NullPredicateYieldsEmptyPlan) {
  auto plan = PlanPredicatePushdown(db_, *md_, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->node_filters.empty());
  EXPECT_EQ(plan->residual, nullptr);
  EXPECT_FALSE(plan->seed.has_value());
  EXPECT_FALSE(plan->HasPushdown());
}

TEST_F(OptimizerTest, IndexSeedRequiresIndexAndRootEquality) {
  auto pred = e::And(e::Eq(e::Attr("state", "name"), e::Lit("SP")),
                     e::Gt(e::Attr("point", "x"), e::Lit(0.0)));
  // No index yet: the conjunct is pushed, but nothing seeds the roots.
  auto before = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->seed.has_value());

  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  auto after = PlanPredicatePushdown(db_, *md_, pred);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->seed.has_value());
  EXPECT_EQ(after->seed->attribute, "name");
  EXPECT_EQ(after->seed->value.ToString(), "'SP'");
  ASSERT_EQ(after->node_filters.size(), 2u);
  // The seed only narrows: the root conjunct still verifies as a filter.
  EXPECT_EQ(after->node_filters[0].predicate->ToString(),
            "(state.name = 'SP')");

  // Inequalities and non-root equalities never seed.
  auto range = PlanPredicatePushdown(
      db_, *md_, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})));
  ASSERT_TRUE(range.ok());
  EXPECT_FALSE(range->seed.has_value());
}

/// Canonical keys in result order — the bit-for-bit comparison: same
/// molecules, same atoms and links per molecule, same order.
std::vector<std::string> Keys(const MoleculeType& mt) {
  std::vector<std::string> keys;
  keys.reserve(mt.size());
  for (MoleculeView m : mt.molecules()) {
    keys.push_back(reference::CanonicalKey(m));
  }
  return keys;
}

/// The derive-then-restrict reference for a SELECT: the Ch. 4 translation
/// run operator by operator — a (DefineMoleculeType), then Σ
/// (RestrictMolecules), then Π (ProjectMolecules) — with no pushdown and no
/// seeds.
Result<MoleculeType> AlgebraReference(const Database& db,
                                      const std::string& query) {
  MAD_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(query));
  const SelectStatement& select = std::get<SelectStatement>(stmt);
  MAD_ASSIGN_OR_RETURN(TranslatedFrom from,
                       TranslateStructure(db, *select.from.structure));
  MAD_ASSIGN_OR_RETURN(
      MoleculeType mt, DefineMoleculeType(db, "reference", *from.description));
  if (select.where != nullptr) {
    MAD_ASSIGN_OR_RETURN(
        mt, RestrictMolecules(db, mt, select.where, "reference"));
  }
  if (!select.select_all) {
    MAD_ASSIGN_OR_RETURN(MoleculeProjectionSpec spec,
                         TranslateProjection(mt.description(), select.items));
    MAD_ASSIGN_OR_RETURN(mt, ProjectMolecules(db, mt, spec, "reference"));
  }
  return mt;
}

TEST_F(OptimizerTest, PushdownAndBaselineAgree) {
  // An index on the root makes the seeded path participate too.
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  const char* queries[] = {
      "SELECT ALL FROM m1(state-area-edge-point) "
      "WHERE state.hectare > 900;",
      "SELECT ALL FROM m2(state-area-edge-point) "
      "WHERE state.hectare > 900 AND point.name = 'pn';",
      "SELECT ALL FROM m3(state-area-edge-point) "
      "WHERE point.name = 'pn';",
      "SELECT ALL FROM m4(state-area-edge-point) "
      "WHERE state.name = 'SP' OR point.name = 'p9';",
      "SELECT state.name FROM m5(state-area-edge-point) "
      "WHERE state.hectare >= 1000 AND NOT state.name = 'SP';",
      "SELECT ALL FROM m6(state-area-edge-point) "
      "WHERE state.name = 'SP' AND point.x >= 0;",
      "SELECT ALL FROM m7(state-area-edge-point) "
      "WHERE COUNT(point) >= 1 AND state.hectare > 0;",
      "SELECT ALL FROM m8(state-area-edge-point) "
      "WHERE FORALL point (point.x >= 0);",
  };
  // The session's fused plan and the operator-by-operator algebra must
  // agree bit-for-bit, per Theorem 2's closure argument: Σ commutes with the
  // derivation split because each pushed conjunct is decided by the same
  // group either way.
  for (const char* query : queries) {
    auto baseline = AlgebraReference(db_, query);
    ASSERT_TRUE(baseline.ok()) << query << ": " << baseline.status();
    Session session(&db_);
    auto result = session.Execute(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status();
    EXPECT_EQ(Keys(*result->molecules), Keys(*baseline)) << query;
  }
}

TEST_F(OptimizerTest, PushdownDerivesOnlyQualifyingRoots) {
  Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 'SP';");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->molecules->size(), 1u);
  EXPECT_EQ(result->molecules->molecules()[0].root(), ids_.states["SP"]);
  // No index on state.name, but the columnar scan seed pre-filters the
  // root column with the batch compare kernel: only the qualifying root
  // fans out, nothing reaches the per-molecule reject path.
  ASSERT_TRUE(result->derivation.has_value());
  EXPECT_EQ(result->derivation->roots, 1u);
  EXPECT_EQ(result->derivation->molecules_rejected, 0u);
}

TEST_F(OptimizerTest, ScanSeedSkippedWhenFirstRootConjunctErrors) {
  // The first root conjunct errors on every row (string + int), so the
  // kernel reports error bits and the scan seed must stand down: the query
  // surfaces the evaluation error exactly as the unseeded path would.
  const char* query =
      "SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name > 3 AND state.hectare > 0;";
  auto parsed = ParseStatement(query);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Session session(&db_);
  auto result = session.Run(std::move(*parsed));
  EXPECT_FALSE(result.ok());
  // And the derive-then-restrict reference reports the identical error.
  auto expected = AlgebraReference(db_, query);
  EXPECT_FALSE(expected.ok());
  EXPECT_EQ(result.status().code(), expected.status().code());
  EXPECT_EQ(result.status().message(), expected.status().message());
}

TEST_F(OptimizerTest, SeedsMatchOnlyTheFirstRootConjunct) {
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  // An indexed equality behind another root conjunct seeds nothing from
  // the index; the first conjunct seeds the column scan instead.
  auto plan = PlanPredicatePushdown(
      db_, *md_,
      e::And(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
             e::Eq(e::Attr("state", "name"), e::Lit("SP"))));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->seed.has_value());
  ASSERT_TRUE(plan->scan_seed.has_value());
  EXPECT_EQ(plan->scan_seed->display, "(state.hectare > 900)");
  // An indexed equality in first place seeds from the index only.
  auto indexed = PlanPredicatePushdown(
      db_, *md_,
      e::And(e::Eq(e::Attr("state", "name"), e::Lit("SP")),
             e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900}))));
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(indexed->seed.has_value());
  EXPECT_FALSE(indexed->scan_seed.has_value());
}

TEST_F(OptimizerTest, AddingAnIndexKeepsTheAnswer) {
  // RJ has hectare 150, so the first conjunct divides by zero there; the
  // indexed equality behind it must not seed that row away.
  const char* query =
      "SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.hectare / (state.hectare - 150) > 0 "
      "AND state.name = 'SP';";
  Session unindexed(&db_);
  auto before = unindexed.Execute(query);
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  Session indexed(&db_);
  auto after = indexed.Execute(query);
  EXPECT_FALSE(before.ok());
  EXPECT_EQ(before.status().message(), "division by zero");
  EXPECT_EQ(after.status().code(), before.status().code());
  EXPECT_EQ(after.status().message(), before.status().message());
}

TEST_F(OptimizerTest, IndexSeedKeepsTypeErrors) {
  // The index bucket of a literal of another type is simply empty, where
  // evaluating the conjunct raises a type error: such a literal must not
  // seed from the index (the analyzer rejects it statically; Run does not
  // analyze).
  const char* query =
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 3;";
  auto run = [&](Session& session) {
    auto parsed = ParseStatement(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return session.Run(std::move(*parsed));
  };
  Session unindexed(&db_);
  auto before = run(unindexed);
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  Session indexed(&db_);
  auto after = run(indexed);
  EXPECT_FALSE(before.ok());
  EXPECT_EQ(after.status().code(), before.status().code());
  EXPECT_EQ(after.status().message(), before.status().message());
}

TEST_F(OptimizerTest, IndexSeedNarrowsTheFanOut) {
  ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 'SP';");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->molecules->size(), 1u);
  EXPECT_EQ(result->molecules->molecules()[0].root(), ids_.states["SP"]);
  // The index bucket seeds exactly the qualifying root: one root fans
  // out, nothing is rejected.
  ASSERT_TRUE(result->derivation.has_value());
  EXPECT_EQ(result->derivation->roots, 1u);
  EXPECT_EQ(result->derivation->molecules_rejected, 0u);
}

}  // namespace
}  // namespace mql
}  // namespace mad
