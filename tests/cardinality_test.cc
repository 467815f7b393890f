#include <gtest/gtest.h>

#include "catalog/link_type.h"
#include "er/er_model.h"
#include "mql/session.h"
#include "storage/binary_codec.h"
#include "storage/database.h"

namespace mad {
namespace {

TEST(LinkCardinalityTest, ParseAndName) {
  LinkCardinality c;
  ASSERT_TRUE(ParseLinkCardinality("1:1", &c));
  EXPECT_EQ(c, LinkCardinality::kOneToOne);
  ASSERT_TRUE(ParseLinkCardinality("1:n", &c));
  EXPECT_EQ(c, LinkCardinality::kOneToMany);
  ASSERT_TRUE(ParseLinkCardinality("N:1", &c));
  EXPECT_EQ(c, LinkCardinality::kManyToOne);
  ASSERT_TRUE(ParseLinkCardinality("n:m", &c));
  EXPECT_EQ(c, LinkCardinality::kManyToMany);
  ASSERT_TRUE(ParseLinkCardinality("*:*", &c));
  EXPECT_EQ(c, LinkCardinality::kManyToMany);
  EXPECT_FALSE(ParseLinkCardinality("", &c));
  EXPECT_FALSE(ParseLinkCardinality("1-n", &c));
  EXPECT_FALSE(ParseLinkCardinality("2:3", &c));
  EXPECT_STREQ(LinkCardinalityName(LinkCardinality::kOneToMany), "1:n");
}

class CardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s;
    ASSERT_TRUE(s.AddAttribute("name", DataType::kString).ok());
    ASSERT_TRUE(db_.DefineAtomType("a", s).ok());
    ASSERT_TRUE(db_.DefineAtomType("b", s).ok());
    a1_ = *db_.InsertAtom("a", {Value("a1")});
    a2_ = *db_.InsertAtom("a", {Value("a2")});
    b1_ = *db_.InsertAtom("b", {Value("b1")});
    b2_ = *db_.InsertAtom("b", {Value("b2")});
  }

  Database db_{"CARD"};
  AtomId a1_, a2_, b1_, b2_;
};

TEST_F(CardinalityTest, OneToOneEnforcedOnBothSides) {
  ASSERT_TRUE(
      db_.DefineLinkType("l", "a", "b", LinkCardinality::kOneToOne).ok());
  ASSERT_TRUE(db_.InsertLink("l", a1_, b1_).ok());
  // a1 may not take a second partner; b1 may not either.
  EXPECT_EQ(db_.InsertLink("l", a1_, b2_).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_.InsertLink("l", a2_, b1_).code(),
            StatusCode::kConstraintViolation);
  // A disjoint pair is fine.
  EXPECT_TRUE(db_.InsertLink("l", a2_, b2_).ok());
}

TEST_F(CardinalityTest, OneToManyBoundsTheSecondRole) {
  ASSERT_TRUE(
      db_.DefineLinkType("l", "a", "b", LinkCardinality::kOneToMany).ok());
  ASSERT_TRUE(db_.InsertLink("l", a1_, b1_).ok());
  // One 'a' may have many 'b's...
  EXPECT_TRUE(db_.InsertLink("l", a1_, b2_).ok());
  // ...but each 'b' has at most one 'a'.
  EXPECT_EQ(db_.InsertLink("l", a2_, b1_).code(),
            StatusCode::kConstraintViolation);
}

TEST_F(CardinalityTest, ManyToOneBoundsTheFirstRole) {
  ASSERT_TRUE(
      db_.DefineLinkType("l", "a", "b", LinkCardinality::kManyToOne).ok());
  ASSERT_TRUE(db_.InsertLink("l", a1_, b1_).ok());
  EXPECT_TRUE(db_.InsertLink("l", a2_, b1_).ok());
  EXPECT_EQ(db_.InsertLink("l", a1_, b2_).code(),
            StatusCode::kConstraintViolation);
}

TEST_F(CardinalityTest, ManyToManyIsUnrestricted) {
  ASSERT_TRUE(db_.DefineLinkType("l", "a", "b").ok());
  EXPECT_TRUE(db_.InsertLink("l", a1_, b1_).ok());
  EXPECT_TRUE(db_.InsertLink("l", a1_, b2_).ok());
  EXPECT_TRUE(db_.InsertLink("l", a2_, b1_).ok());
}

TEST_F(CardinalityTest, EraseFreesTheSlot) {
  ASSERT_TRUE(
      db_.DefineLinkType("l", "a", "b", LinkCardinality::kOneToOne).ok());
  ASSERT_TRUE(db_.InsertLink("l", a1_, b1_).ok());
  ASSERT_TRUE(db_.EraseLink("l", a1_, b1_).ok());
  EXPECT_TRUE(db_.InsertLink("l", a1_, b2_).ok());
}

TEST_F(CardinalityTest, SurvivesSerialization) {
  ASSERT_TRUE(
      db_.DefineLinkType("l", "a", "b", LinkCardinality::kOneToMany).ok());
  ASSERT_TRUE(db_.InsertLink("l", a1_, b1_).ok());
  auto clone = CloneDatabase(db_);
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_EQ((*(*clone)->GetLinkType("l"))->cardinality(),
            LinkCardinality::kOneToMany);
  // Still enforced after the round trip.
  EXPECT_EQ((*clone)->InsertLink("l", a2_, b1_).code(),
            StatusCode::kConstraintViolation);
}

TEST_F(CardinalityTest, MqlExtendedLinkTypeDefinition) {
  mql::Session session(&db_);
  auto created = session.Execute("CREATE LINK TYPE owns (a, b, '1:n');");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ((*db_.GetLinkType("owns"))->cardinality(),
            LinkCardinality::kOneToMany);

  ASSERT_TRUE(session
                  .Execute("INSERT LINK owns FROM (name = 'a1') "
                           "TO (name = 'b1');")
                  .ok());
  // Violating insert through MQL is rejected.
  auto second = session.Execute(
      "INSERT LINK owns FROM (name = 'a2') TO (name = 'b1');");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kConstraintViolation);

  EXPECT_FALSE(session.Execute("CREATE LINK TYPE bad (a, b, 'x:y');").ok());
  EXPECT_FALSE(session.Execute("CREATE LINK TYPE bad (a, b, 7);").ok());
}

TEST_F(CardinalityTest, ErMappingCarriesCardinalities) {
  // Defined in er_test for the schema shape; here the enforcement: the
  // Figure-1 1:1 state-area relationship rejects a second area.
  Database db("GEO");
  er::ErSchema er_schema = er::Figure1ErSchema();
  ASSERT_TRUE(er::MapToMad(er_schema, db).ok());
  auto sp = db.InsertAtom("state", {Value("SP"), Value(int64_t{1})});
  auto x1 = db.InsertAtom("area", {Value("x1"), Value(int64_t{1})});
  auto x2 = db.InsertAtom("area", {Value("x2"), Value(int64_t{1})});
  ASSERT_TRUE(db.InsertLink("state-area", *sp, *x1).ok());
  EXPECT_EQ(db.InsertLink("state-area", *sp, *x2).code(),
            StatusCode::kConstraintViolation);
}

}  // namespace
}  // namespace mad
