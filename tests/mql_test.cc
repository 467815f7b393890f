#include "mql/session.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algebra/atom_algebra.h"
#include "mql/lexer.h"
#include "mql/parser.h"
#include "util/string_util.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

// ---- Lexer -------------------------------------------------------------------

TEST(MqlLexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT ALL FROM state WHERE hectare >= 1000;");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_EQ(tokens->size(), 10u);  // includes end marker
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[3].text, "state");
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kGe);
  EXPECT_EQ((*tokens)[7].int_value, 1000);
}

TEST(MqlLexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From WHERE");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kFrom);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kWhere);
}

TEST(MqlLexerTest, StringsWithEscapes) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
  EXPECT_FALSE(Tokenize("'unterminated").ok());
}

TEST(MqlLexerTest, LinkRefsCarryDashes) {
  auto tokens = Tokenize("state-[state-area]-area");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[0].text, "state");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDash);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLinkRef);
  EXPECT_EQ((*tokens)[2].text, "state-area");
  EXPECT_FALSE(Tokenize("state-[oops").ok());
}

TEST(MqlLexerTest, NumbersAndComments) {
  auto tokens = Tokenize("3.5 42 -- trailing comment\n7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[0].double_value, 3.5);
  EXPECT_EQ((*tokens)[1].int_value, 42);
  EXPECT_EQ((*tokens)[2].int_value, 7);
}

TEST(MqlLexerTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(Tokenize("SELECT @").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// ---- Parser -------------------------------------------------------------------

TEST(MqlParserTest, ChainStructure) {
  auto stmt = ParseStatement("SELECT ALL FROM mt_state(state-area-edge-point);");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_TRUE(select.select_all);
  EXPECT_EQ(select.from.molecule_name, "mt_state");
  const StructureNode* node = select.from.structure.get();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->atom, "state");
  ASSERT_EQ(node->branches.size(), 1u);
  // Chain: each node links to exactly one child.
  EXPECT_EQ(node->branches[0].child->atom, "area");
  EXPECT_EQ(node->branches[0].child->branches[0].child->atom, "edge");
}

TEST(MqlParserTest, BranchingStructure) {
  auto stmt =
      ParseStatement("SELECT ALL FROM point-edge-(area-state,net-river) "
                     "WHERE point.name = 'pn';");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_TRUE(select.from.molecule_name.empty());
  const StructureNode* point = select.from.structure.get();
  EXPECT_EQ(point->atom, "point");
  const StructureNode* edge = point->branches[0].child.get();
  EXPECT_EQ(edge->atom, "edge");
  ASSERT_EQ(edge->branches.size(), 2u);
  EXPECT_EQ(edge->branches[0].child->atom, "area");
  EXPECT_EQ(edge->branches[1].child->atom, "net");
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->ToString(), "(point.name = 'pn')");
}

TEST(MqlParserTest, ExplicitAndRecursiveLinks) {
  auto stmt = ParseStatement("SELECT ALL FROM part-[composition*];");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = std::get<SelectStatement>(*stmt);
  const auto& branch = select.from.structure->branches[0];
  EXPECT_TRUE(branch.recursive);
  EXPECT_FALSE(branch.reverse);
  EXPECT_EQ(branch.recursive_depth, -1);
  EXPECT_EQ(*branch.link, "composition");

  auto bounded = ParseStatement("SELECT ALL FROM part-[composition~*3];");
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  const auto& b2 = std::get<SelectStatement>(*bounded).from.structure->branches[0];
  EXPECT_TRUE(b2.recursive);
  EXPECT_TRUE(b2.reverse);
  EXPECT_EQ(b2.recursive_depth, 3);
}

TEST(MqlParserTest, ProjectionItems) {
  auto stmt = ParseStatement(
      "SELECT state.name, area, point.* FROM state-area-edge-point;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_FALSE(select.select_all);
  ASSERT_EQ(select.items.size(), 3u);
  EXPECT_EQ(select.items[0].label, "state");
  EXPECT_EQ(*select.items[0].attribute, "name");
  EXPECT_FALSE(select.items[1].attribute.has_value());
  EXPECT_FALSE(select.items[2].attribute.has_value());
}

TEST(MqlParserTest, DdlAndDml) {
  auto create = ParseStatement(
      "CREATE ATOM TYPE state (name STRING, hectare INT64);");
  ASSERT_TRUE(create.ok()) << create.status();
  const auto& cat = std::get<CreateAtomTypeStatement>(*create);
  EXPECT_EQ(cat.name, "state");
  ASSERT_EQ(cat.attributes.size(), 2u);
  EXPECT_EQ(cat.attributes[1].second, DataType::kInt64);

  auto link = ParseStatement("CREATE LINK TYPE owns (state, area);");
  ASSERT_TRUE(link.ok());
  const auto& clt = std::get<CreateLinkTypeStatement>(*link);
  EXPECT_EQ(clt.first, "state");
  EXPECT_EQ(clt.second, "area");

  auto insert = ParseStatement(
      "INSERT INTO state VALUES ('SP', 1000), ('MG', 900);");
  ASSERT_TRUE(insert.ok());
  const auto& ia = std::get<InsertAtomStatement>(*insert);
  EXPECT_EQ(ia.rows.size(), 2u);
  EXPECT_EQ(ia.rows[0][0].AsString(), "SP");

  auto insert_link = ParseStatement(
      "INSERT LINK owns FROM (name = 'SP') TO (name = 'a7');");
  ASSERT_TRUE(insert_link.ok()) << insert_link.status();
  const auto& il = std::get<InsertLinkStatement>(*insert_link);
  EXPECT_EQ(il.link_type, "owns");

  auto del = ParseStatement("DELETE FROM state WHERE name = 'SP';");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(std::get<DeleteStatement>(*del).predicate, nullptr);
}

TEST(MqlParserTest, InsertLinkTakesABareHyphenatedLinkType) {
  const std::string text =
      "INSERT LINK state-area FROM (name = 'SP') TO (name = 'a7');";
  auto bare = ParseStatement(text);
  ASSERT_TRUE(bare.ok()) << bare.status();
  const auto& il = std::get<InsertLinkStatement>(*bare);
  EXPECT_EQ(il.link_type, "state-area");
  EXPECT_EQ(text.substr(il.link_span.offset, il.link_span.length),
            "state-area");
  auto bracketed = ParseStatement(
      "INSERT LINK [state-area] FROM (name = 'SP') TO (name = 'a7');");
  ASSERT_TRUE(bracketed.ok()) << bracketed.status();
  EXPECT_EQ(std::get<InsertLinkStatement>(*bracketed).link_type,
            "state-area");
  EXPECT_EQ(std::get<InsertLinkStatement>(
                *ParseStatement("INSERT LINK a-b-c FROM (x = 1) TO (y = 2);"))
                .link_type,
            "a-b-c");
  EXPECT_FALSE(
      ParseStatement("INSERT LINK state- FROM (name = 'SP') TO (x = 1);").ok());
}

TEST(MqlParserTest, NegativeNumbersAndPrecedence) {
  auto stmt = ParseStatement(
      "SELECT ALL FROM state WHERE hectare + 2 * 3 > -1 AND NOT name = 'x' "
      "OR hectare < 5;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = std::get<SelectStatement>(*stmt);
  // OR binds loosest, AND next, NOT tightest among the connectives.
  EXPECT_EQ(select.where->ToString(),
            "((((hectare + (2 * 3)) > (0 - 1)) AND (NOT (name = 'x'))) OR "
            "(hectare < 5))");
}

TEST(MqlParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("SELECT;").ok());
  EXPECT_FALSE(ParseStatement("SELECT ALL;").ok());
  EXPECT_FALSE(ParseStatement("SELECT ALL FROM;").ok());
  EXPECT_FALSE(ParseStatement("FROM state;").ok());
  EXPECT_FALSE(ParseStatement("SELECT ALL FROM a-(b,c)-d;").ok());
  EXPECT_FALSE(ParseStatement("SELECT ALL FROM state WHERE;").ok());
  EXPECT_FALSE(ParseStatement("CREATE ATOM TYPE t (a BLOB);").ok());
  EXPECT_FALSE(ParseStatement("SELECT ALL FROM state; extra").ok());
}

TEST(MqlParserTest, ParseScript) {
  auto script = ParseScript(
      "CREATE ATOM TYPE t (a STRING); INSERT INTO t VALUES ('x');");
  ASSERT_TRUE(script.ok()) << script.status();
  EXPECT_EQ(script->size(), 2u);
  EXPECT_FALSE(ParseScript("CREATE ATOM TYPE t (a STRING) SELECT").ok());
}

// ---- Session / end-to-end -------------------------------------------------------

class MqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
    session_ = std::make_unique<Session>(&db_);
  }

  std::set<std::string> RootNames(const QueryResult& result) {
    std::set<std::string> names;
    const MoleculeType& mt = *result.molecules;
    const AtomType* at = *db_.GetAtomType(mt.description().root_node().type_name);
    size_t idx = *at->description().IndexOf("name");
    for (MoleculeView m : mt.molecules()) {
      names.insert(at->occurrence().Find(m.root())->values[idx].AsString());
    }
    return names;
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<Session> session_;
};

TEST_F(MqlSessionTest, InsertLinkWithAHyphenatedLinkType) {
  ASSERT_TRUE(session_->Execute("INSERT INTO state VALUES ('XX', 5);").ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO area VALUES ('aX', 5);").ok());
  auto inserted = session_->Execute(
      "INSERT LINK state-area FROM (name = 'XX') TO (name = 'aX');");
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(inserted->affected, 1u);
  auto selected =
      session_->Execute("SELECT ALL FROM state-area WHERE state.name = 'XX';");
  ASSERT_TRUE(selected.ok()) << selected.status();
  ASSERT_EQ(selected->molecules->size(), 1u);
  EXPECT_EQ(selected->molecules->molecules()[0].AtomsOf(1).size(), 1u);
}

TEST_F(MqlSessionTest, PaperExample1MtState) {
  // Ch. 4: SELECT ALL FROM mt_state(state-area-edge-point);
  auto result =
      session_->Execute("SELECT ALL FROM mt_state(state-area-edge-point);");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->kind, QueryResult::Kind::kMolecules);
  EXPECT_EQ(result->molecules->size(), 10u);
  EXPECT_EQ(result->molecules->name(), "mt_state");
  EXPECT_EQ(result->molecules->description().ToString(),
            "state-area-edge-point");
}

TEST_F(MqlSessionTest, PaperExample2PointNeighborhood) {
  // Ch. 4: SELECT ALL FROM point-edge-(area-state,net-river)
  //        WHERE point.name = 'pn';
  auto result = session_->Execute(
      "SELECT ALL FROM point-edge-(area-state,net-river) "
      "WHERE point.name = 'pn';");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->molecules->size(), 1u);
  MoleculeView m = result->molecules->molecules()[0];
  EXPECT_EQ(m.root(), ids_.points["pn"]);
  // The molecule reaches SP, MS, MG, GO and the river Parana (Fig. 2).
  size_t state_idx = *result->molecules->description().NodeIndex("state");
  EXPECT_EQ(m.AtomsOf(state_idx).size(), 4u);
  size_t river_idx = *result->molecules->description().NodeIndex("river");
  ASSERT_EQ(m.AtomsOf(river_idx).size(), 1u);
  EXPECT_EQ(m.AtomsOf(river_idx)[0], ids_.rivers["Parana"]);
}

TEST_F(MqlSessionTest, RegisteredMoleculeTypesAreReusable) {
  ASSERT_TRUE(
      session_->Execute("SELECT ALL FROM mt_state(state-area-edge-point);")
          .ok());
  EXPECT_TRUE(session_->HasRegisteredMoleculeType("mt_state"));
  auto result = session_->Execute(
      "SELECT ALL FROM mt_state WHERE state.hectare > 1000;");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(RootNames(*result), (std::set<std::string>{"BA", "MS", "RS"}));
}

TEST_F(MqlSessionTest, SingleAtomTypeQuery) {
  auto result =
      session_->Execute("SELECT ALL FROM state WHERE hectare >= 1000;");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(RootNames(*result), (std::set<std::string>{"BA", "MS", "SP", "RS"}));
}

TEST_F(MqlSessionTest, ProjectionSelectsSubtreeWithAncestors) {
  // Selecting 'state' keeps the root path point-edge-area-state and drops
  // the net-river branch.
  auto result = session_->Execute(
      "SELECT state FROM point-edge-(area-state,net-river) "
      "WHERE point.name = 'pn';");
  ASSERT_TRUE(result.ok()) << result.status();
  const MoleculeDescription& md = result->molecules->description();
  EXPECT_EQ(md.nodes().size(), 4u);
  EXPECT_TRUE(md.HasLabel("state"));
  EXPECT_FALSE(md.HasLabel("river"));
  EXPECT_EQ(md.root_label(), "point");
}

TEST_F(MqlSessionTest, ProjectionNarrowsAttributes) {
  auto result = session_->Execute(
      "SELECT state.name, point FROM mt2(state-area-edge-point);");
  ASSERT_TRUE(result.ok()) << result.status();
  const MoleculeDescription& md = result->molecules->description();
  size_t state_idx = *md.NodeIndex("state");
  ASSERT_TRUE(md.nodes()[state_idx].attributes.has_value());
  EXPECT_EQ(*md.nodes()[state_idx].attributes,
            std::vector<std::string>{"name"});
  size_t point_idx = *md.NodeIndex("point");
  EXPECT_FALSE(md.nodes()[point_idx].attributes.has_value());
}

TEST_F(MqlSessionTest, ExplicitLinkNamesInStructures) {
  auto result = session_->Execute(
      "SELECT ALL FROM state-[state-area]-area-[area-edge]-edge;");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->molecules->size(), 10u);
}

TEST_F(MqlSessionTest, AmbiguousImplicitLinkIsRejected) {
  ASSERT_TRUE(db_.DefineLinkType("state-area-2", "state", "area").ok());
  auto result = session_->Execute("SELECT ALL FROM state-area;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Naming the link resolves it.
  EXPECT_TRUE(session_->Execute("SELECT ALL FROM state-[state-area]-area;").ok());
}

TEST_F(MqlSessionTest, DdlDmlRoundTrip) {
  Database db("SCRATCH");
  Session session(&db);
  auto results = session.ExecuteScript(
      "CREATE ATOM TYPE part (name STRING, cost INT64);"
      "CREATE LINK TYPE contains (part, part);"
      "INSERT INTO part VALUES ('car', 20000), ('engine', 5000), ('bolt', 1);"
      "INSERT LINK contains FROM (name = 'car') TO (name = 'engine');"
      "INSERT LINK contains FROM (name = 'engine') TO (name = 'bolt');");
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(results->size(), 5u);
  EXPECT_EQ((*results)[2].affected, 3u);
  EXPECT_EQ((*results)[3].affected, 1u);

  auto query = session.Execute("SELECT ALL FROM part-[contains*];");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->kind, QueryResult::Kind::kRecursive);
  EXPECT_EQ(query->recursive.size(), 3u);

  auto del = session.Execute("DELETE FROM part WHERE name = 'engine';");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->affected, 1u);
  // Referential integrity: both contains links died with engine.
  EXPECT_EQ((*db.GetLinkType("contains"))->occurrence().size(), 0u);
}

TEST_F(MqlSessionTest, RecursiveQueryOverBom) {
  Database db("BOM");
  auto ids = workload::BuildCarBom(db);
  ASSERT_TRUE(ids.ok());
  Session session(&db);

  // Parts explosion of the car.
  auto result = session.Execute(
      "SELECT ALL FROM part-[composition*] WHERE root.name = 'car';");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->recursive.size(), 1u);
  EXPECT_EQ(result->recursive[0].atom_count(), 5u);

  // Where-used implosion of the bolt ('~' flips the traversal).
  auto implosion = session.Execute(
      "SELECT ALL FROM part-[composition~*] WHERE root.name = 'bolt';");
  ASSERT_TRUE(implosion.ok()) << implosion.status();
  ASSERT_EQ(implosion->recursive.size(), 1u);
  EXPECT_TRUE(implosion->recursive[0].Contains((*ids)["car"]));

  // Depth-bounded.
  auto bounded = session.Execute(
      "SELECT ALL FROM part-[composition*1] WHERE root.name = 'car';");
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->recursive[0].atom_count(), 3u);

  // Existential member predicate: all parts whose explosion contains a
  // bolt.
  auto with_bolt = session.Execute(
      "SELECT ALL FROM part-[composition*] WHERE part.name = 'bolt';");
  ASSERT_TRUE(with_bolt.ok()) << with_bolt.status();
  EXPECT_EQ(with_bolt->recursive.size(), 5u);  // every part reaches a bolt
}

/// One recursive SELECT and its outcome: the surviving closures as
/// "<root name>/<atom count>[/<components>]" in result order, or the error.
struct RecursiveSigmaCase {
  const char* query;
  const char* outcome;
};

std::string RecursiveOutcome(const Database& db,
                             const Result<QueryResult>& result) {
  if (!result.ok()) return "error " + result.status().ToString();
  const AtomType* at =
      *db.GetAtomType(result->recursive_description.atom_type);
  const size_t name = *at->description().IndexOf("name");
  std::string out;
  for (size_t i = 0; i < result->recursive.size(); ++i) {
    const RecursiveMolecule& m = result->recursive[i];
    if (!out.empty()) out += " ";
    out += at->occurrence().Find(m.root())->values[name].AsString() + "/" +
           std::to_string(m.atom_count());
    if (!result->recursive_components.empty()) {
      out += '/';
      out += std::to_string(result->recursive_components[i].size());
    }
  }
  return out;
}

TEST(MqlRecursiveSigmaTest, ClosureQualification) {
  // car -> {engine -> piston -> bolt, chassis -> bolt}; costs 20000, 5000,
  // 3000, 120, 1. Closures are evaluated in occurrence order: car, engine,
  // chassis, piston, bolt.
  Database db("BOM");
  auto ids = workload::BuildCarBom(db);
  ASSERT_TRUE(ids.ok());
  Schema supplier;
  ASSERT_TRUE(supplier.AddAttribute("company", DataType::kString).ok());
  ASSERT_TRUE(db.DefineAtomType("supplier", std::move(supplier)).ok());
  ASSERT_TRUE(db.DefineLinkType("supplies", "supplier", "part").ok());
  AtomId acme = *db.InsertAtom("supplier", {Value("Acme")});
  ASSERT_TRUE(db.InsertLink("supplies", acme, (*ids)["bolt"]).ok());
  ASSERT_TRUE(db.InsertLink("supplies", acme, (*ids)["engine"]).ok());

  const RecursiveSigmaCase cases[] = {
      // Root-only, member-only (qualified by the atom type), unqualified.
      {"SELECT ALL FROM part-[composition*] WHERE root.cost > 1000;",
       "car/5 engine/3 chassis/2"},
      {"SELECT ALL FROM part-[composition*] WHERE part.name = 'piston';",
       "car/5 engine/3 piston/2"},
      {"SELECT ALL FROM part-[composition*] WHERE name = 'chassis';",
       "car/5 chassis/2"},
      // Root and member in one comparison, forwards and backwards.
      {"SELECT ALL FROM part-[composition*] WHERE part.cost > root.cost;",
       ""},
      {"SELECT ALL FROM part-[composition~*] WHERE part.cost > root.cost;",
       "engine/2 chassis/2 piston/3 bolt/5"},
      // OR and NOT over separate leaves. NOT negates the existential: every
      // closure holds the bolt, so NOT part.cost < 4000 never holds.
      {"SELECT ALL FROM part-[composition*] "
       "WHERE root.name = 'bolt' OR NOT part.cost < 4000;",
       "bolt/1"},
      {"SELECT ALL FROM part-[composition*] "
       "WHERE root.name = 'bolt' OR part.cost >= 4000;",
       "car/5 engine/3 bolt/1"},
      {"SELECT ALL FROM part-[composition*] "
       "WHERE NOT (root.cost > 100 AND part.cost < 2);",
       "bolt/1"},
      // A runtime error that only the piston closure's data triggers.
      {"SELECT ALL FROM part-[composition*] "
       "WHERE root.cost / (part.cost - 120) > 0;",
       "error InvalidArgument: division by zero"},
      // Backward closure with a root filter.
      {"SELECT ALL FROM part-[composition~*] WHERE root.name = 'bolt';",
       "bolt/5"},
      // Depth-bounded closure and a member filter.
      {"SELECT ALL FROM part-[composition*2] WHERE part.name = 'bolt';",
       "car/5 engine/3 chassis/2 piston/2 bolt/1"},
      {"SELECT ALL FROM part-[composition*1] WHERE part.name = 'bolt';",
       "chassis/2 piston/2 bolt/1"},
      // Expansion tail: components only for the surviving closures.
      {"SELECT ALL FROM part-[composition*]-[supplies~]-supplier "
       "WHERE part.cost < 2 AND root.cost >= 3000;",
       "car/5/5 engine/3/3 chassis/2/2"},
  };
  for (const RecursiveSigmaCase& c : cases) {
    Session session(&db);
    EXPECT_EQ(RecursiveOutcome(db, session.Execute(c.query)), c.outcome)
        << c.query;
  }

  // An atom type named 'root': the qualifier 'root' still binds the
  // closure's root, unqualified references its members.
  Database named("ROOTS");
  Session setup(&named);
  ASSERT_TRUE(setup
                  .ExecuteScript(
                      "CREATE ATOM TYPE root (name STRING, cost INT64);"
                      "CREATE LINK TYPE sub (root, root);"
                      "INSERT INTO root VALUES ('a', 10), ('b', 5), "
                      "('c', 1);"
                      "INSERT LINK sub FROM (name = 'a') TO (name = 'b');"
                      "INSERT LINK sub FROM (name = 'b') TO (name = 'c');")
                  .ok());
  const RecursiveSigmaCase named_cases[] = {
      {"SELECT ALL FROM root-[sub*] WHERE root.cost > 3;", "a/3 b/2"},
      {"SELECT ALL FROM root-[sub*] WHERE cost = 5;", "a/3 b/2"},
      {"SELECT ALL FROM root-[sub~*] WHERE name = 'a';", "a/1 b/2 c/3"},
  };
  for (const RecursiveSigmaCase& c : named_cases) {
    Session session(&named);
    EXPECT_EQ(RecursiveOutcome(named, session.Execute(c.query)), c.outcome)
        << c.query;
  }
}

TEST_F(MqlSessionTest, SessionErrors) {
  EXPECT_FALSE(session_->Execute("SELECT ALL FROM bogus;").ok());
  EXPECT_FALSE(session_->Execute("SELECT ALL FROM state-river;").ok());
  EXPECT_FALSE(
      session_->Execute("SELECT ALL FROM mt_state(state-area) WHERE x = 1;")
          .ok());
  EXPECT_FALSE(
      session_->Execute("SELECT bogus FROM mtx(state-area-edge-point);").ok());
  EXPECT_FALSE(session_->Execute("INSERT INTO state VALUES (1, 'x');").ok());
  // Recursive structures reject extra projections.
  Database db("BOM");
  ASSERT_TRUE(workload::BuildCarBom(db).ok());
  Session session(&db);
  EXPECT_FALSE(
      session.Execute("SELECT part FROM part-[composition*];").ok());
}

TEST_F(MqlSessionTest, UpdateStatement) {
  auto result = session_->Execute(
      "UPDATE state SET hectare = hectare + 100 WHERE name = 'SP';");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->affected, 1u);
  auto v = db_.GetAttribute("state", ids_.states["SP"], "hectare");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 1100);

  // Unconditional update touches every atom.
  auto all = session_->Execute("UPDATE state SET hectare = 0;");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->affected, 10u);

  // Errors: unknown attribute, wrong qualifier, type mismatch at write.
  EXPECT_FALSE(session_->Execute("UPDATE state SET bogus = 1;").ok());
  EXPECT_FALSE(
      session_->Execute("UPDATE state SET hectare = river.length;").ok());
  EXPECT_FALSE(session_->Execute("UPDATE state SET hectare = 'x';").ok());
}

TEST_F(MqlSessionTest, UpdateKeepsIndexesConsistent) {
  ASSERT_TRUE(db_.CreateIndex("state", "hectare").ok());
  ASSERT_TRUE(session_
                  ->Execute("UPDATE state SET hectare = 7777 "
                            "WHERE name = 'MG';")
                  .ok());
  auto hits = db_.LookupByAttribute("state", "hectare", Value(int64_t{7777}));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], ids_.states["MG"]);
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MqlSessionTest, ExplainShowsAlgebraTranslation) {
  auto plan = session_->Execute(
      "EXPLAIN SELECT state.name FROM mt_state(state-area-edge-point) "
      "WHERE point.name = 'pn';");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->message.find("a[mt_state"), std::string::npos);
  EXPECT_NE(plan->message.find("Sigma[(point.name = 'pn')]"),
            std::string::npos);
  // Selecting only the root keeps just the root node (ancestors = none).
  EXPECT_NE(plan->message.find("Pi[{state(name)}]"), std::string::npos)
      << plan->message;
  // EXPLAIN does not register or execute anything.
  EXPECT_FALSE(session_->HasRegisteredMoleculeType("mt_state"));
}

TEST_F(MqlSessionTest, ExplainRecursive) {
  Database db("BOM");
  ASSERT_TRUE(workload::BuildCarBom(db).ok());
  Session session(&db);
  auto plan = session.Execute(
      "EXPLAIN SELECT ALL FROM part-[composition~*3] "
      "WHERE root.name = 'bolt';");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->message.find("closure[part, composition, backward, "
                               "depth<=3]"),
            std::string::npos)
      << plan->message;
}

TEST_F(MqlSessionTest, FlatSelectMatchesAtomAlgebra) {
  // Fig. 3 degeneration through the language: a single-node SELECT behaves
  // like relational σ.
  auto via_mql =
      session_->Execute("SELECT ALL FROM state WHERE hectare > 1000;");
  ASSERT_TRUE(via_mql.ok());
  auto via_algebra = mad::algebra::Restrict(
      db_, "state",
      mad::expr::Gt(mad::expr::Attr("hectare"), mad::expr::Lit(int64_t{1000})),
      "sigma_result");
  ASSERT_TRUE(via_algebra.ok());
  EXPECT_EQ(via_mql->molecules->size(),
            (*db_.GetAtomType("sigma_result"))->occurrence().size());
}

}  // namespace
}  // namespace mql
}  // namespace mad
