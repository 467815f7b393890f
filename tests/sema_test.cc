// Semantic analyzer suite: one test per diagnostic code, plus pinned
// renderings (caret blocks, JSON) and the Session-level contract — errors
// block Execute() with the historical StatusCode, warnings ride along on
// the result, and CHECK analyzes without executing.

#include "mql/sema.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/data_type.h"
#include "core/schema.h"
#include "molecule/description.h"
#include "mql/diag.h"
#include "mql/parser.h"
#include "mql/session.h"
#include "storage/database.h"

namespace mad {
namespace mql {
namespace {

/// Geo + bill-of-materials catalog: enough shape for every diagnostic —
/// a chain (state-area-edge-point), an ambiguous pair (state_area and
/// governs both connect state/area), an ambiguous attribute (state.name
/// and area.name), and a reflexive link type (composition).
class SemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema state;
    ASSERT_TRUE(state.AddAttribute("name", DataType::kString).ok());
    ASSERT_TRUE(state.AddAttribute("hectare", DataType::kInt64).ok());
    ASSERT_TRUE(db_.DefineAtomType("state", std::move(state)).ok());
    Schema area;
    ASSERT_TRUE(area.AddAttribute("name", DataType::kString).ok());
    ASSERT_TRUE(db_.DefineAtomType("area", std::move(area)).ok());
    Schema edge;
    ASSERT_TRUE(edge.AddAttribute("length", DataType::kInt64).ok());
    ASSERT_TRUE(db_.DefineAtomType("edge", std::move(edge)).ok());
    Schema point;
    ASSERT_TRUE(point.AddAttribute("x", DataType::kInt64).ok());
    ASSERT_TRUE(point.AddAttribute("y", DataType::kInt64).ok());
    ASSERT_TRUE(db_.DefineAtomType("point", std::move(point)).ok());
    Schema part;
    ASSERT_TRUE(part.AddAttribute("pname", DataType::kString).ok());
    ASSERT_TRUE(part.AddAttribute("cost", DataType::kInt64).ok());
    ASSERT_TRUE(db_.DefineAtomType("part", std::move(part)).ok());
    ASSERT_TRUE(db_.DefineLinkType("state_area", "state", "area").ok());
    ASSERT_TRUE(db_.DefineLinkType("governs", "state", "area").ok());
    ASSERT_TRUE(db_.DefineLinkType("area_edge", "area", "edge").ok());
    ASSERT_TRUE(db_.DefineLinkType("edge_point", "edge", "point").ok());
    ASSERT_TRUE(db_.DefineLinkType("composition", "part", "part").ok());
  }

  std::vector<Diagnostic> Analyze(const std::string& text) {
    auto stmt = ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << text << "\n" << stmt.status();
    if (!stmt.ok()) return {};
    return AnalyzeStatement(db_, registry_, *stmt);
  }

  std::vector<std::string> Codes(const std::string& text) {
    std::vector<std::string> codes;
    for (const Diagnostic& diag : Analyze(text)) codes.push_back(diag.code());
    return codes;
  }

  /// The single diagnostic `text` must produce, with its code pinned.
  Diagnostic Only(const std::string& text, const std::string& code) {
    auto diags = Analyze(text);
    EXPECT_EQ(diags.size(), 1u) << text;
    if (diags.empty()) return Diagnostic{};
    EXPECT_EQ(std::string(diags[0].code()), code) << diags[0].message;
    return diags[0];
  }

  Database db_{"SEMA_DB"};
  std::map<std::string, MoleculeDescription> registry_;
};

bool Contains(const std::vector<std::string>& codes, const std::string& code) {
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

// ---- MQL01xx: name resolution ------------------------------------------------

TEST_F(SemaTest, Mql0101UnknownAtomType) {
  Diagnostic d = Only("SELECT ALL FROM m(badatom-area);", "MQL0101");
  EXPECT_EQ(d.message, "atom type 'badatom' not defined");
  EXPECT_TRUE(d.span.known());
  // DELETE resolves through the same path.
  EXPECT_EQ(Codes("DELETE FROM ghost;"), std::vector<std::string>{"MQL0101"});
}

TEST_F(SemaTest, Mql0102UnknownLinkType) {
  Diagnostic d = Only("SELECT ALL FROM m(state-[badlink]-area);", "MQL0102");
  EXPECT_EQ(d.message, "link type 'badlink' not defined");
}

TEST_F(SemaTest, Mql0103UnknownAttribute) {
  Diagnostic d = Only("SELECT ALL FROM state WHERE nam = 'x';", "MQL0103");
  ASSERT_EQ(d.notes.size(), 1u);
  EXPECT_EQ(d.notes[0].message, "did you mean 'name'?");
}

TEST_F(SemaTest, Mql0104UnknownQualifier) {
  Diagnostic d =
      Only("SELECT bogus.name FROM m(state-[state_area]-area);", "MQL0104");
  EXPECT_EQ(d.message,
            "qualifier 'bogus' matches no node of the molecule description");
}

TEST_F(SemaTest, Mql0105UnknownFromName) {
  Diagnostic d = Only("SELECT ALL FROM statee;", "MQL0105");
  EXPECT_EQ(d.message,
            "'statee' names neither a registered molecule type nor an "
            "atom type");
  ASSERT_EQ(d.notes.size(), 1u);
  EXPECT_EQ(d.notes[0].message, "did you mean 'state'?");
}

TEST_F(SemaTest, Mql0106UnknownSetOption) {
  Diagnostic d = Only("SET TRACE2 1;", "MQL0106");
  EXPECT_EQ(d.message,
            "unknown session option 'TRACE2'; available: PIN SNAPSHOT, "
            "SYNC, TRACE");
  ASSERT_EQ(d.notes.size(), 1u);
  EXPECT_EQ(d.notes[0].message, "did you mean 'TRACE'?");
  // Statements run on one thread; there is no width to set.
  EXPECT_EQ(Only("SET PARALLELISM 2;", "MQL0106").message,
            "unknown session option 'PARALLELISM'; available: PIN SNAPSHOT, "
            "SYNC, TRACE");
}

TEST_F(SemaTest, Mql0108AmbiguousAttribute) {
  // state.name and area.name both match the unqualified reference.
  Diagnostic d = Only(
      "SELECT ALL FROM m(state-[state_area]-area) WHERE name = 'x';",
      "MQL0108");
  EXPECT_EQ(d.message, "ambiguous attribute 'name' (qualify it with a "
                       "node label)");
  ASSERT_EQ(d.notes.size(), 1u);
}

TEST_F(SemaTest, Mql0109AmbiguousQualifier) {
  // The grammar spells descriptions as trees of distinct atom types, so an
  // ambiguous type-name qualifier needs a programmatic description with two
  // same-typed nodes under distinct labels.
  auto md = MoleculeDescription::Create(
      db_,
      {MoleculeNode{"state", "state", {}}, MoleculeNode{"area", "north", {}},
       MoleculeNode{"area", "south", {}}},
      {DirectedLink{"state_area", "state", "north"},
       DirectedLink{"governs", "state", "south"}});
  ASSERT_TRUE(md.ok()) << md.status();
  registry_.emplace("twin", *md);
  Diagnostic d = Only("SELECT area.name FROM twin;", "MQL0109");
  EXPECT_EQ(d.message,
            "qualifier 'area' matches several nodes; use a label");
  // A label picks one node unambiguously; only the unused-node lint on
  // 'south' remains, and it is a warning.
  auto diags = Analyze("SELECT north.name FROM twin;");
  EXPECT_FALSE(HasErrors(diags));
}

// ---- MQL02xx: Def. 5 structure checks ----------------------------------------

TEST_F(SemaTest, Mql0201DuplicateStructureAtom) {
  auto codes = Codes("SELECT ALL FROM m(state-area-state);");
  EXPECT_TRUE(Contains(codes, "MQL0201")) << codes.size();
}

TEST_F(SemaTest, Mql0201DirectGraphDuplicate) {
  std::vector<Diagnostic> diags;
  CheckDescriptionGraph({DescNode{"a", "state", {}}, DescNode{"a", "area", {}}},
                        {}, &diags);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(std::string(diags[0].code()), "MQL0201");
  ASSERT_EQ(diags[0].notes.size(), 1u);
  EXPECT_EQ(diags[0].notes[0].message, "first occurrence is here");
}

TEST_F(SemaTest, Mql0202NoConnectingLinkType) {
  Diagnostic d = Only("SELECT ALL FROM m(state-point);", "MQL0202");
  EXPECT_EQ(d.message, "no link type connects 'state' and 'point'");
}

TEST_F(SemaTest, Mql0203AmbiguousImplicitLink) {
  Diagnostic d = Only("SELECT ALL FROM m(state-area);", "MQL0203");
  EXPECT_EQ(d.message,
            "several link types connect 'state' and 'area' (state_area, "
            "governs); name one with -[link]-");
  // Naming one resolves it.
  EXPECT_TRUE(Analyze("SELECT ALL FROM m(state-[governs]-area);").empty());
}

TEST_F(SemaTest, Mql0204LinkDirectionMismatch) {
  Diagnostic d = Only("SELECT ALL FROM m(state-[area_edge]-area);", "MQL0204");
  EXPECT_EQ(d.message,
            "link type 'area_edge' connects <area, edge>, not <state, area>");
}

TEST_F(SemaTest, Mql0205CyclicDescription) {
  std::vector<Diagnostic> diags;
  CheckDescriptionGraph(
      {DescNode{"root", "state", {}}, DescNode{"a", "area", {}},
       DescNode{"b", "edge", {}}},
      {DescLink{"l1", "root", "a", {}}, DescLink{"l2", "a", "b", {}},
       DescLink{"l3", "b", "a", {}}},
      &diags);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(std::string(diags[0].code()), "MQL0205");
  EXPECT_EQ(diags[0].message,
            "the description graph has a cycle (a -> b -> a); Def. 5 "
            "requires a DAG");
}

TEST_F(SemaTest, Mql0206MultipleRoots) {
  std::vector<Diagnostic> diags;
  CheckDescriptionGraph(
      {DescNode{"a", "state", {}}, DescNode{"b", "area", {}},
       DescNode{"c", "edge", {}}},
      {DescLink{"l1", "a", "c", {}}, DescLink{"l2", "b", "c", {}}}, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(std::string(diags[0].code()), "MQL0206");
  EXPECT_EQ(diags[0].message,
            "the description has 2 roots (a, b); Def. 5 requires exactly one");
}

TEST_F(SemaTest, Mql0207IncoherentDescription) {
  std::vector<Diagnostic> diags;
  CheckDescriptionGraph(
      {DescNode{"a", "state", {}}, DescNode{"b", "area", {}},
       DescNode{"c", "edge", {}}, DescNode{"d", "point", {}}},
      {DescLink{"l1", "a", "b", {}}, DescLink{"l2", "c", "d", {}}}, &diags);
  std::vector<std::string> codes;
  for (const Diagnostic& diag : diags) codes.push_back(diag.code());
  EXPECT_TRUE(Contains(codes, "MQL0207"));
  EXPECT_FALSE(Contains(codes, "MQL0206"));  // each component has one root
}

TEST_F(SemaTest, Mql0208MisplacedRecursion) {
  ASSERT_TRUE(db_.DefineLinkType("supplies", "state", "part").ok());
  Diagnostic d =
      Only("SELECT ALL FROM state-[supplies]-part-[composition*];", "MQL0208");
  EXPECT_EQ(d.message, "a recursive step must be the only step of the "
                       "structure");
}

TEST_F(SemaTest, Mql0209NonReflexiveRecursion) {
  Diagnostic d = Only("SELECT ALL FROM state-[state_area*];", "MQL0209");
  EXPECT_EQ(d.message,
            "recursive derivation needs a reflexive link type on 'state'; "
            "'state_area' connects <state, area>");
}

// ---- MQL03xx: predicates and projections -------------------------------------

TEST_F(SemaTest, Mql0301NonBooleanPredicate) {
  Diagnostic d = Only("SELECT ALL FROM state WHERE hectare + 1;", "MQL0301");
  EXPECT_EQ(d.message, "expression (hectare + 1) is not a predicate");
}

TEST_F(SemaTest, Mql0302ComparisonTypeMismatch) {
  Diagnostic d = Only("SELECT ALL FROM state WHERE name > 3;", "MQL0302");
  EXPECT_EQ(d.message, "cannot compare STRING with INT64");
  // Numeric widening stays legal: INT64 vs DOUBLE is fine.
  EXPECT_TRUE(Analyze("SELECT ALL FROM state WHERE hectare > 3.5;").empty());
}

TEST_F(SemaTest, Mql0303NonNumericArithmetic) {
  auto codes = Codes("SELECT ALL FROM state WHERE name + 1 = 2;");
  EXPECT_TRUE(Contains(codes, "MQL0303"));
}

TEST_F(SemaTest, Mql0305InvalidRecursiveQualifier) {
  Diagnostic d = Only(
      "SELECT ALL FROM part-[composition*] WHERE bogus.pname = 'x';",
      "MQL0305");
  EXPECT_EQ(d.message,
            "recursive queries allow the qualifiers 'root' and 'part'; "
            "found 'bogus'");
  EXPECT_TRUE(
      Analyze("SELECT ALL FROM part-[composition*] WHERE root.pname = 'x';")
          .empty());
}

TEST_F(SemaTest, Mql0306RecursiveProjection) {
  Diagnostic d = Only("SELECT root.pname FROM part-[composition*];",
                      "MQL0306");
  EXPECT_EQ(d.message, "recursive queries support SELECT ALL projections "
                       "only");
}

TEST_F(SemaTest, Mql0307ForAllForeignReference) {
  Diagnostic d = Only(
      "SELECT ALL FROM m(state-[governs]-area) "
      "WHERE FORALL area (state.name = 'x');",
      "MQL0307");
  EXPECT_EQ(d.message,
            "FORALL area: predicate may only reference 'area', found "
            "'state.name'");
  EXPECT_TRUE(Analyze("SELECT ALL FROM m(state-[governs]-area) "
                      "WHERE FORALL area (area.name = 'x');")
                  .empty());
}

TEST_F(SemaTest, Mql0308NestedForAll) {
  auto codes = Codes(
      "SELECT ALL FROM m(state-[governs]-area) "
      "WHERE FORALL area (FORALL area (name = 'y'));");
  EXPECT_TRUE(Contains(codes, "MQL0308"));
}

TEST_F(SemaTest, Mql0309AggregateInAtomScope) {
  Diagnostic d = Only("DELETE FROM state WHERE COUNT(state) > 0;", "MQL0309");
  EXPECT_EQ(d.message,
            "COUNT(state) is only valid in molecule-scope qualification");
  // In molecule scope COUNT is fine.
  EXPECT_TRUE(Analyze("SELECT ALL FROM m(state-[governs]-area) "
                      "WHERE COUNT(area) > 1;")
                  .empty());
}

// ---- MQL04xx: DDL / DML ------------------------------------------------------

TEST_F(SemaTest, Mql0401InsertArityMismatch) {
  Diagnostic d = Only("INSERT INTO state VALUES ('x');", "MQL0401");
  EXPECT_EQ(d.message, "row arity 1 does not match schema arity 2");
}

TEST_F(SemaTest, Mql0402ValueTypeMismatch) {
  Diagnostic d = Only("INSERT INTO state VALUES ('x', 'y');", "MQL0402");
  EXPECT_EQ(d.message, "attribute 'hectare' expects INT64 but got STRING "
                       "('y')");
  // UPDATE assignments go through the same check.
  EXPECT_EQ(Codes("UPDATE state SET hectare = 'oops';"),
            std::vector<std::string>{"MQL0402"});
}

TEST_F(SemaTest, Mql0403DuplicateAttribute) {
  Diagnostic d =
      Only("CREATE ATOM TYPE t1 (a STRING, a INT64);", "MQL0403");
  EXPECT_EQ(d.message, "duplicate attribute 'a' in atom type 't1'");
  ASSERT_EQ(d.notes.size(), 1u);
  EXPECT_EQ(d.notes[0].message, "first declared here");
}

TEST_F(SemaTest, Mql0404TypeAlreadyExists) {
  EXPECT_EQ(Codes("CREATE ATOM TYPE state (z STRING);"),
            std::vector<std::string>{"MQL0404"});
  EXPECT_EQ(Codes("CREATE LINK TYPE governs (state, area);"),
            std::vector<std::string>{"MQL0404"});
}

TEST_F(SemaTest, Mql0405InvalidOptionValue) {
  Diagnostic d = Only("SET SYNC 2;", "MQL0405");
  EXPECT_EQ(d.message, "SYNC must be ON/1 or OFF/0");
  EXPECT_TRUE(Analyze("SET SYNC ON;").empty());
}

TEST_F(SemaTest, Mql0406QualifierTypeMismatch) {
  Diagnostic d = Only("DELETE FROM state WHERE area.name = 'x';", "MQL0406");
  EXPECT_EQ(d.message, "qualifier 'area' does not match atom type 'state'");
  EXPECT_TRUE(Analyze("DELETE FROM state WHERE state.name = 'x';").empty());
}

// ---- MQL05xx: warnings -------------------------------------------------------

TEST_F(SemaTest, Mql0501ShadowedLabel) {
  Diagnostic d = Only("SELECT ALL FROM state(state-[governs]-area);",
                      "MQL0501");
  EXPECT_EQ(d.severity(), Severity::kWarning);
  EXPECT_EQ(d.message,
            "molecule type 'state' shadows the atom type 'state'; a bare "
            "FROM state will now mean the molecule type");
}

TEST_F(SemaTest, Mql0502ZeroDepthRecursion) {
  Diagnostic d = Only("SELECT ALL FROM part-[composition*0];", "MQL0502");
  EXPECT_EQ(d.severity(), Severity::kWarning);
  EXPECT_EQ(d.message, "recursion depth bound 0 derives only the root atom");
}

TEST_F(SemaTest, Mql0503RestrictionOnNarrowedAttribute) {
  auto codes = Codes(
      "SELECT state.name FROM m(state-[governs]-area) "
      "WHERE state.hectare > 1;");
  EXPECT_TRUE(Contains(codes, "MQL0503"));
}

TEST_F(SemaTest, Mql0504UnusedStructureNode) {
  auto diags = Analyze(
      "SELECT state.name FROM m(state-[governs]-area) "
      "WHERE state.name != '';");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(std::string(diags[0].code()), "MQL0504");
  EXPECT_EQ(diags[0].severity(), Severity::kWarning);
  // A node kept alive by the WHERE clause (or by connecting projected
  // nodes) is not flagged.
  EXPECT_TRUE(Analyze("SELECT state.name FROM m(state-[governs]-area) "
                      "WHERE area.name != '';")
                  .empty());
}

// ---- Clean statements stay clean ---------------------------------------------

TEST_F(SemaTest, CleanStatementsProduceNoDiagnostics) {
  const char* clean[] = {
      "SELECT ALL FROM state;",
      "SELECT ALL FROM m(state-[state_area]-area-edge-point);",
      "SELECT ALL FROM part-[composition*3] WHERE root.pname = 'engine';",
      "INSERT INTO state VALUES ('bavaria', 7055000);",
      "UPDATE state SET hectare = hectare + 1 WHERE name = 'bavaria';",
      "DELETE FROM state WHERE hectare < 0;",
      "CREATE ATOM TYPE fresh (a STRING);",
      "SET PIN SNAPSHOT ON;",
  };
  for (const char* text : clean) {
    EXPECT_TRUE(Analyze(text).empty()) << text;
  }
}

// ---- Helpers: codes, severities, suggestions ---------------------------------

TEST_F(SemaTest, KnownSessionOptionsArePinned) {
  EXPECT_EQ(KnownSessionOptions(),
            (std::vector<std::string>{"PIN SNAPSHOT", "SYNC", "TRACE"}));
}

TEST(DiagTest, CodesAndSeveritiesAreStable) {
  EXPECT_STREQ(DiagCode(DiagId::kParseError), "MQL0001");
  EXPECT_STREQ(DiagCode(DiagId::kUnknownAtomType), "MQL0101");
  EXPECT_STREQ(DiagCode(DiagId::kUnusedStructureNode), "MQL0504");
  EXPECT_EQ(DiagSeverity(DiagId::kUnknownAtomType), Severity::kError);
  EXPECT_EQ(DiagSeverity(DiagId::kShadowedLabel), Severity::kWarning);
  // Status mapping preserves historical Execute() codes.
  EXPECT_EQ(DiagStatusCode(DiagId::kUnknownAtomType), StatusCode::kNotFound);
  EXPECT_EQ(DiagStatusCode(DiagId::kTypeAlreadyExists),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(DiagStatusCode(DiagId::kRecursiveProjection),
            StatusCode::kUnsupported);
  EXPECT_EQ(DiagStatusCode(DiagId::kComparisonTypeMismatch),
            StatusCode::kInvalidArgument);
}

TEST(DiagTest, EditDistanceAndSuggestions) {
  EXPECT_EQ(EditDistance("state", "statee"), 1u);
  EXPECT_EQ(EditDistance("STATE", "state"), 0u);  // case-insensitive
  auto hit = ClosestMatch("statee", {"state", "area", "point"});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "state");
  // Too far to plausibly be a typo.
  EXPECT_FALSE(ClosestMatch("zzzzzz", {"state", "area"}).has_value());
}

// ---- Pinned renderings -------------------------------------------------------

TEST_F(SemaTest, CaretRenderingIsPinned) {
  const std::string source = "SELECT ALL FROM statee;";
  auto diags = Analyze(source);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(RenderDiagnostic(diags[0], source),
            "error[MQL0105]: 'statee' names neither a registered molecule "
            "type nor an atom type\n"
            "    --> 1:17\n"
            "     |\n"
            "   1 | SELECT ALL FROM statee;\n"
            "     |                 ^^^^^^\n"
            "    = note: did you mean 'state'?\n");
}

TEST_F(SemaTest, JsonRenderingIsPinned) {
  const std::string source = "SELECT ALL FROM statee;";
  auto diags = Analyze(source);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(
      DiagnosticsToJson(diags, "q.mql"),
      "[\n  {\"file\": \"q.mql\", \"code\": \"MQL0105\", \"severity\": "
      "\"error\", \"line\": 1, \"column\": 17, \"offset\": 16, \"length\": "
      "6, \"message\": \"'statee' names neither a registered molecule type "
      "nor an atom type\", \"notes\": [{\"message\": \"did you mean "
      "'state'?\", \"line\": 0, \"column\": 0}]}\n]");
  EXPECT_EQ(DiagnosticsToJson({}, "q.mql"), "[]");
}

// ---- Session integration: gating, warnings, CHECK ----------------------------

TEST(SemaSessionTest, ErrorsBlockExecutionWithHistoricalStatusCode) {
  Database db("SEMA_SESSION_DB");
  Session session(&db);
  ASSERT_TRUE(
      session.Execute("CREATE ATOM TYPE state (name STRING);").ok());
  auto result = session.Execute("SELECT ALL FROM statee;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("MQL0105"), std::string::npos)
      << result.status();
  // Blocked statements leave no trace: the session keeps working.
  EXPECT_TRUE(session.Execute("SELECT ALL FROM state;").ok());
}

TEST(SemaSessionTest, WarningsRideAlongOnSuccessfulResults) {
  Database db("SEMA_WARN_DB");
  Session session(&db);
  ASSERT_TRUE(
      session.Execute("CREATE ATOM TYPE state (name STRING);").ok());
  ASSERT_TRUE(session.Execute("CREATE ATOM TYPE area (aname STRING);").ok());
  ASSERT_TRUE(
      session.Execute("CREATE LINK TYPE state_area (state, area);").ok());
  ASSERT_TRUE(session.Execute("SELECT ALL FROM m(state-area);").ok());
  // Redefining the registered molecule type warns (MQL0501) but runs.
  auto result = session.Execute("SELECT ALL FROM m(state-area);");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->diagnostics.size(), 1u);
  EXPECT_EQ(std::string(result->diagnostics[0].code()), "MQL0501");
  EXPECT_EQ(result->diagnostics[0].severity(), Severity::kWarning);
}

TEST(SemaSessionTest, CheckAnalyzesWithoutExecuting) {
  Database db("SEMA_CHECK_DB");
  Session session(&db);
  ASSERT_TRUE(
      session.Execute("CREATE ATOM TYPE state (name STRING);").ok());
  // Clean statement: verdict only, nothing derived, nothing inserted.
  auto clean = session.Execute("CHECK INSERT INTO state VALUES ('x');");
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->message, "CHECK: no issues found");
  EXPECT_TRUE(clean->diagnostics.empty());
  auto count = session.Execute("SELECT ALL FROM state;");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->molecules->size(), 0u);  // CHECK did not insert
  // Broken statement: CHECK itself succeeds and carries the diagnostics.
  auto broken =
      session.Execute("CHECK SELECT ALL FROM statee WHERE nam > 'x';");
  ASSERT_TRUE(broken.ok()) << broken.status();
  EXPECT_EQ(broken->message, "CHECK: 1 error(s), 0 warning(s)");
  ASSERT_EQ(broken->diagnostics.size(), 1u);
  EXPECT_EQ(std::string(broken->diagnostics[0].code()), "MQL0105");
}

TEST(SemaSessionTest, ScriptAnalysisSeesEarlierCatalogEffects) {
  Database db("SEMA_SCRIPT_DB");
  Session session(&db);
  // The SELECT references the type the script itself creates: per-statement
  // analysis must run after the DDL applies, not upfront.
  auto results = session.ExecuteScript(
      "CREATE ATOM TYPE fresh (a STRING);\n"
      "INSERT INTO fresh VALUES ('x');\n"
      "SELECT ALL FROM fresh;");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 3u);
}

}  // namespace
}  // namespace mql
}  // namespace mad
