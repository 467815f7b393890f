// Closure expansion ([Schö89]'s recursive molecule types with per-member
// component molecules): the test-support oracle, and the MQL expansion tail
// held to it.

#include <gtest/gtest.h>

#include <algorithm>

#include "molecule/recursive.h"
#include "mql/session.h"
#include "support/expansion_oracle.h"
#include "workload/bom.h"

namespace mad {
namespace {

/// Car BOM plus suppliers: engine and bolt have suppliers, linked n:m.
class ExpansionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildCarBom(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    Schema s;
    ASSERT_TRUE(s.AddAttribute("company", DataType::kString).ok());
    ASSERT_TRUE(db_.DefineAtomType("supplier", std::move(s)).ok());
    ASSERT_TRUE(db_.DefineLinkType("supplies", "supplier", "part").ok());
    acme_ = *db_.InsertAtom("supplier", {Value("Acme")});
    bolts_inc_ = *db_.InsertAtom("supplier", {Value("Bolts Inc")});
    ASSERT_TRUE(db_.InsertLink("supplies", acme_, ids_["engine"]).ok());
    ASSERT_TRUE(db_.InsertLink("supplies", bolts_inc_, ids_["bolt"]).ok());
    ASSERT_TRUE(db_.InsertLink("supplies", acme_, ids_["bolt"]).ok());
  }

  RecursiveDescription Explosion() {
    return RecursiveDescription{"part", "composition",
                                LinkDirection::kForward, -1};
  }
  MoleculeDescription PartWithSuppliers() {
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"part", "supplier"},
        {{"supplies", "part", "supplier", true}});
    EXPECT_TRUE(md.ok()) << md.status();
    return *md;
  }

  Database db_{"BOM"};
  std::map<std::string, AtomId> ids_;
  AtomId acme_, bolts_inc_;
};

TEST_F(ExpansionTest, LibraryLevelExpansion) {
  auto m = DeriveExpandedRecursiveMoleculeFor(db_, Explosion(),
                                              PartWithSuppliers(),
                                              ids_["car"]);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->closure.atom_count(), 5u);
  ASSERT_EQ(m->components.size(), 5u);

  // Each component molecule is rooted at its closure member; the bolt
  // component carries both suppliers.
  size_t supplier_idx = 1;  // node order: part, supplier
  size_t with_suppliers = 0;
  for (const Molecule& component : m->components) {
    if (component.root() == ids_["bolt"]) {
      EXPECT_EQ(component.AtomsOf(supplier_idx).size(), 2u);
      ++with_suppliers;
    }
    if (component.root() == ids_["engine"]) {
      EXPECT_EQ(component.AtomsOf(supplier_idx).size(), 1u);
      ++with_suppliers;
    }
  }
  EXPECT_EQ(with_suppliers, 2u);
}

TEST_F(ExpansionTest, ExpansionValidatesRootType) {
  auto md = MoleculeDescription::CreateFromTypes(
      db_, {"supplier", "part"},
      {{"supplies", "supplier", "part", false}});
  ASSERT_TRUE(md.ok());
  // Expansion rooted at 'supplier', recursion over 'part' — rejected.
  EXPECT_EQ(DeriveExpandedRecursiveMoleculeFor(db_, Explosion(), *md,
                                               ids_["car"])
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExpansionTest, DeriveAllExpanded) {
  auto all =
      DeriveExpandedRecursiveMolecules(db_, Explosion(), PartWithSuppliers());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);  // one per part
  for (const ExpandedRecursiveMolecule& m : *all) {
    EXPECT_EQ(m.components.size(), m.closure.atom_count());
  }
}

TEST_F(ExpansionTest, MqlExpansionTail) {
  mql::Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM part-[composition*]-[supplies~]-supplier "
      "WHERE root.name = 'car';");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->kind, mql::QueryResult::Kind::kRecursive);
  ASSERT_EQ(result->recursive.size(), 1u);
  ASSERT_EQ(result->recursive_components.size(), 1u);
  EXPECT_EQ(result->recursive_components[0].size(), 5u);
  ASSERT_TRUE(result->expansion_description.has_value());
  EXPECT_EQ(result->expansion_description->root_label(), "part");

  // The expanded components include the bolt's two suppliers.
  size_t supplier_idx =
      *result->expansion_description->NodeIndex("supplier");
  bool found_bolt = false;
  for (MoleculeView component : result->recursive_components[0]) {
    if (component.root() == ids_["bolt"]) {
      EXPECT_EQ(component.AtomsOf(supplier_idx).size(), 2u);
      found_bolt = true;
    }
  }
  EXPECT_TRUE(found_bolt);
}

TEST_F(ExpansionTest, MqlExpansionMatchesOracleForEveryRoot) {
  mql::Session session(&db_);
  auto result = session.Execute(
      "SELECT ALL FROM part-[composition*]-[supplies~]-supplier;");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->expansion_description.has_value());
  EXPECT_EQ(*result->expansion_description, PartWithSuppliers());
  auto oracle =
      DeriveExpandedRecursiveMolecules(db_, Explosion(), PartWithSuppliers());
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 5u);  // one per part
  ASSERT_EQ(result->recursive.size(), oracle->size());
  ASSERT_EQ(result->recursive_components.size(), oracle->size());
  for (size_t i = 0; i < oracle->size(); ++i) {
    const ExpandedRecursiveMolecule& want = (*oracle)[i];
    const RecursiveMolecule& closure = result->recursive[i];
    EXPECT_EQ(closure.root(), want.closure.root()) << "closure " << i;
    EXPECT_EQ(closure.levels(), want.closure.levels()) << "closure " << i;
    EXPECT_EQ(closure.links(), want.closure.links()) << "closure " << i;
    const MoleculeSet& components = result->recursive_components[i];
    ASSERT_EQ(components.size(), want.components.size()) << "closure " << i;
    for (size_t j = 0; j < components.size(); ++j) {
      MoleculeView got = components[j];
      const Molecule& expected = want.components[j];
      EXPECT_EQ(got.root(), expected.root()) << i << "/" << j;
      ASSERT_EQ(got.node_count(), expected.node_count()) << i << "/" << j;
      for (size_t n = 0; n < got.node_count(); ++n) {
        EXPECT_TRUE(std::ranges::equal(got.AtomsOf(n), expected.AtomsOf(n)))
            << i << "/" << j;
      }
      EXPECT_TRUE(std::ranges::equal(got.links(), expected.links()))
          << i << "/" << j;
    }
  }
}

TEST_F(ExpansionTest, MqlExplainShowsExpansion) {
  mql::Session session(&db_);
  auto plan = session.Execute(
      "EXPLAIN SELECT ALL FROM part-[composition*]-[supplies~]-supplier;");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->message.find("closure[part, composition, forward"),
            std::string::npos);
  EXPECT_NE(plan->message.find("expand-each[part-supplier]"),
            std::string::npos)
      << plan->message;
}

TEST_F(ExpansionTest, MqlRejectsNestedRecursionInExpansion) {
  mql::Session session(&db_);
  EXPECT_FALSE(
      session.Execute("SELECT ALL FROM part-[composition*]-[composition*];")
          .ok());
}

}  // namespace
}  // namespace mad
