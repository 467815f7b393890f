// Remaining end-to-end coverage: script error handling, the city (point-
// like object) flank of the Figure-1 schema, registered-type interactions,
// and session/result plumbing details.

#include <gtest/gtest.h>

#include "mql/session.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

class SessionMiscTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    session_ = std::make_unique<Session>(&db_);
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionMiscTest, ScriptStopsAtFirstError) {
  Database db("SCRATCH");
  Session session(&db);
  auto results = session.ExecuteScript(
      "CREATE ATOM TYPE t (a STRING);"
      "INSERT INTO t VALUES (42);"  // type error
      "CREATE ATOM TYPE u (b STRING);");
  ASSERT_FALSE(results.ok());
  // The first statement took effect, the third never ran.
  EXPECT_TRUE(db.HasAtomType("t"));
  EXPECT_FALSE(db.HasAtomType("u"));
}

TEST_F(SessionMiscTest, CityIsAPointLikeObject) {
  // Fig. 1 models cities through the shared geographic model: city-point
  // is 1:1-shaped in the ER diagram, and the city of 'Brasilia' sits on
  // point p5, which hangs off edge e4 on GO's border.
  auto result = session_->Execute(
      "SELECT ALL FROM city-point-edge-(area-state,net-river) "
      "WHERE city.name = 'Brasilia';");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->molecules->size(), 1u);
  const MoleculeDescription& md = result->molecules->description();
  MoleculeView m = result->molecules->molecules()[0];
  size_t state_idx = *md.NodeIndex("state");
  ASSERT_EQ(m.AtomsOf(state_idx).size(), 1u);
  EXPECT_EQ(m.AtomsOf(state_idx)[0], ids_.states["GO"]);
}

TEST_F(SessionMiscTest, RegisteredTypeCanBeRedefined) {
  ASSERT_TRUE(session_->Execute("SELECT ALL FROM m(state-area);").ok());
  // Redefinition under the same name replaces the registration.
  auto redefined =
      session_->Execute("SELECT ALL FROM m(state-area-edge-point);");
  ASSERT_TRUE(redefined.ok());
  auto reuse = session_->Execute("SELECT ALL FROM m;");
  ASSERT_TRUE(reuse.ok());
  EXPECT_EQ(reuse->molecules->description().nodes().size(), 4u);
}

TEST_F(SessionMiscTest, RegisteredNameShadowedByExplicitStructure) {
  ASSERT_TRUE(session_->Execute("SELECT ALL FROM state(state-area);").ok());
  // 'state' is now registered AND an atom type; a bare FROM prefers the
  // registration, an inline structure is always literal.
  auto bare = session_->Execute("SELECT ALL FROM state;");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->molecules->description().nodes().size(), 2u);
}

TEST_F(SessionMiscTest, CommandMessagesAreInformative) {
  Database db("SCRATCH");
  Session session(&db);
  auto r1 = session.Execute("CREATE ATOM TYPE t (a STRING);");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->kind, QueryResult::Kind::kCommand);
  EXPECT_NE(r1->message.find("'t' created"), std::string::npos);
  auto r2 = session.Execute("INSERT INTO t VALUES ('x'), ('y');");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->affected, 2u);
  auto r3 = session.Execute("DELETE FROM t;");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->affected, 2u);
  EXPECT_NE(r3->message.find("deleted"), std::string::npos);
}

TEST_F(SessionMiscTest, WhereTrueAndWhereFalse) {
  auto all = session_->Execute("SELECT ALL FROM state WHERE TRUE;");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->molecules->size(), 10u);
  auto none = session_->Execute("SELECT ALL FROM state WHERE FALSE;");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->molecules->size(), 0u);
}

TEST_F(SessionMiscTest, SelectItemsByTypeNameQualifier) {
  // Projection items resolve through ResolveQualifier: type names work
  // when unambiguous.
  auto result = session_->Execute(
      "SELECT area.name FROM q(state-area-edge-point) "
      "WHERE state.name = 'SP';");
  ASSERT_TRUE(result.ok()) << result.status();
  const MoleculeDescription& md = result->molecules->description();
  EXPECT_EQ(md.nodes().size(), 2u);  // state (root ancestor) + area
  size_t area_idx = *md.NodeIndex("area");
  ASSERT_TRUE(md.nodes()[area_idx].attributes.has_value());
}

TEST_F(SessionMiscTest, InsertLinkReportsZeroOnNoMatches) {
  auto result = session_->Execute(
      "INSERT LINK [state-area] FROM (name = 'ZZ') TO (name = 'a1');");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->affected, 0u);
}

TEST_F(SessionMiscTest, UpdateCrossAttributeAssignment) {
  Database db("SCRATCH");
  Session session(&db);
  ASSERT_TRUE(session
                  .ExecuteScript("CREATE ATOM TYPE t (a INT64, b INT64);"
                                 "INSERT INTO t VALUES (3, 4);")
                  .ok());
  ASSERT_TRUE(session.Execute("UPDATE t SET a = b * b - a;").ok());
  auto at = db.GetAtomType("t");
  EXPECT_EQ((*at)->occurrence().atoms()[0].values[0].AsInt64(), 13);
}

TEST_F(SessionMiscTest, SelectReportsDerivationCounters) {
  auto first = session_->Execute("SELECT ALL FROM state-area-edge-point;");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->derivation.has_value());
  EXPECT_EQ(first->derivation->roots, first->molecules->size());
  EXPECT_GT(first->derivation->atoms_visited, 0u);

  // The same statement again: the same molecules and the same counters.
  auto again = session_->Execute("SELECT ALL FROM state-area-edge-point;");
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->molecules->size(), first->molecules->size());
  for (size_t i = 0; i < again->molecules->size(); ++i) {
    EXPECT_TRUE(again->molecules->molecules()[i] ==
                first->molecules->molecules()[i]);
  }
  EXPECT_EQ(again->derivation->atoms_visited,
            first->derivation->atoms_visited);
  EXPECT_EQ(again->derivation->links_scanned,
            first->derivation->links_scanned);

  // Statements run on one thread: there is no PARALLELISM option, and
  // unknown options fail cleanly.
  EXPECT_FALSE(session_->Execute("SET PARALLELISM 2;").ok());
  EXPECT_FALSE(session_->Execute("SET FROBNICATION 3;").ok());
}

TEST_F(SessionMiscTest, UnknownOptionErrorListsEveryOption) {
  // The "available: ..." list is generated from the option table, so every
  // dispatchable option must appear in the error — a hardcoded list would
  // go stale the moment an option is added.
  auto bad = session_->Execute("SET FROBNICATION 3;");
  ASSERT_FALSE(bad.ok());
  const std::string message = bad.status().ToString();
  for (const char* option : {"PIN SNAPSHOT", "SYNC", "TRACE"}) {
    EXPECT_NE(message.find(option), std::string::npos)
        << "option " << option << " missing from: " << message;
  }
  // Every listed option actually dispatches (accepts or rejects the value,
  // but never reports "unknown session option").
  for (const char* stmt :
       {"SET PIN SNAPSHOT OFF;", "SET SYNC OFF;", "SET TRACE OFF;"}) {
    auto result = session_->Execute(stmt);
    EXPECT_TRUE(result.ok()) << result.status();
  }
}

TEST_F(SessionMiscTest, SetTraceRecordsSpansOnEveryStatement) {
  ASSERT_TRUE(session_->Execute("SET TRACE ON;").ok());
  auto result = session_->Execute("SELECT ALL FROM state-area;");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->trace, nullptr);
  ASSERT_FALSE(result->trace->spans().empty());
  EXPECT_EQ(result->trace->spans()[0].name, "select");
  ASSERT_TRUE(session_->Execute("SET TRACE OFF;").ok());
  auto untraced = session_->Execute("SELECT ALL FROM state-area;");
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace, nullptr);
}

}  // namespace
}  // namespace mql
}  // namespace mad
