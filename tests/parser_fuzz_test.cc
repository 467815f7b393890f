// Robustness suite: the MQL front end must return ParseError statuses — and
// never crash, hang, or accept garbage — for arbitrary byte soup, token
// soup, and truncations of valid statements.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "expr/compile.h"
#include "molecule/derivation.h"
#include "molecule/description.h"
#include "support/molecule_qualifier.h"
#include "mql/parser.h"
#include "mql/sema.h"
#include "mql/session.h"
#include "fuzz_rounds.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  std::mt19937_64 rng(2026);
  const int rounds = testing::FuzzRounds(2000);
  for (int round = 0; round < rounds; ++round) {
    size_t len = rng() % 120;
    std::string text;
    text.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      text += static_cast<char>(rng() % 127 + 1);  // skip NUL
    }
    auto result = ParseStatement(text);
    // Any status is fine; crashes and hangs are the failure mode.
    (void)result;
  }
}

TEST(ParserFuzzTest, TokenSoupNeverCrashes) {
  const char* fragments[] = {
      "SELECT", "ALL",  "FROM",   "WHERE",  "(",      ")",     ",",
      ";",      "-",    "*",      ".",      "'x'",    "42",    "3.5",
      "state",  "area", "[a-b]",  "AND",    "OR",     "NOT",   "=",
      "<=",     "!=",   "CREATE", "INSERT", "DELETE", "UPDATE", "EXPLAIN",
      "VALUES", "SET",  "LINK",   "TYPE",   "INTO",   "TO",    "[c*]",
  };
  std::mt19937_64 rng(7);
  const int rounds = testing::FuzzRounds(2000);
  for (int round = 0; round < rounds; ++round) {
    std::string text;
    size_t tokens = rng() % 24;
    for (size_t i = 0; i < tokens; ++i) {
      text += fragments[rng() % std::size(fragments)];
      text += ' ';
    }
    auto result = ParseStatement(text);
    (void)result;
  }
}

TEST(ParserFuzzTest, TruncationsOfValidStatementsFailCleanly) {
  const std::string statements[] = {
      "SELECT ALL FROM mt_state(state-area-edge-point) "
      "WHERE state.hectare > 1000 AND point.name = 'pn';",
      "CREATE ATOM TYPE t (a STRING, b INT64);",
      "CREATE LINK TYPE l (t, t, '1:n');",
      "INSERT LINK l FROM (a = 'x') TO (a = 'y');",
      "UPDATE t SET b = b + 1 WHERE a != 'z';",
      "EXPLAIN SELECT x.name FROM q(x-y) WHERE y.v <= 3.5;",
  };
  for (const std::string& statement : statements) {
    // The full statement must parse.
    ASSERT_TRUE(ParseStatement(statement).ok()) << statement;
    // Every proper prefix must fail with ParseError (or, for prefixes
    // ending exactly at a statement boundary, parse fine) — never crash.
    for (size_t len = 0; len < statement.size(); ++len) {
      auto result = ParseStatement(statement.substr(0, len));
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kParseError)
            << statement.substr(0, len);
      }
    }
  }
}

TEST(ParserFuzzTest, SessionSurvivesGarbageAgainstRealDatabase) {
  Database db("GEO_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  Session session(&db);
  std::mt19937_64 rng(99);

  // Statements that parse but reference nonsense must fail with clean
  // statuses and leave the database consistent.
  const char* nasty[] = {
      "SELECT ALL FROM nope;",
      "SELECT ALL FROM state-bogus;",
      "SELECT ALL FROM state-[nope]-area;",
      "SELECT nothing FROM m(state-area);",
      "SELECT ALL FROM m(state-area) WHERE ghost.attr = 1;",
      "INSERT INTO state VALUES ('only-one-value');",
      "INSERT LINK ghost FROM (name='x') TO (name='y');",
      "UPDATE state SET hectare = 'not a number';",
      "DELETE FROM ghost;",
      "SELECT ALL FROM part-[composition*];",
      "SELECT ALL FROM state-area-state;",
  };
  for (const char* statement : nasty) {
    auto result = session.Execute(statement);
    EXPECT_FALSE(result.ok()) << statement;
  }
  EXPECT_TRUE(db.CheckConsistency().ok());
  // The session still works afterwards.
  auto ok = session.Execute("SELECT ALL FROM state;");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->molecules->size(), 10u);
  (void)rng;
}

// Whatever the parser accepts, the analyzer must survive: fuzzed token soup
// that happens to parse goes through AnalyzeStatement against a real
// catalog, and the only failure mode is a crash or hang.
TEST(ParserFuzzTest, AnalyzerSurvivesFuzzedStatements) {
  Database db("GEO_SEMA_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  const std::map<std::string, MoleculeDescription> registry;

  // Grammar-directed soup: each slot draws from a pool that mixes valid,
  // misspelled, ill-typed, and structurally absurd fragments, so most
  // statements parse and the analyzer sees the whole diagnostic space.
  const char* projections[] = {
      "ALL", "state.name", "bogus.x", "state.name, area.aname",
      "root.hectare", "statee.name",
  };
  const char* froms[] = {
      "state",
      "statee",
      "m1(state-area)",
      "m1(state-[state-area]-area)",
      "m2(state-area-edge-point)",
      "m3(state-[ghostlink]-area)",
      "m4(state-point)",
      "state-[state-area*]",
      "state-[state-area*2]",
      "state-[state-area*0]-area",
      "state(state-area)",
  };
  const char* predicates[] = {
      "name = 'x'",
      "hectare + 1",
      "name > 3",
      "hectare > 3.5",
      "COUNT(state) > 1",
      "COUNT(bogus) = 0",
      "FORALL area (aname = 'x')",
      "FORALL area (state.name = 'x')",
      "FORALL area (FORALL area (aname = 'x'))",
      "ghost.attr = 1",
      "state.name = area.aname",
      "NOT hectare < 2",
      "hectare + name = 2",
      "root.name != 'y'",
  };
  std::mt19937_64 rng(2027);
  size_t analyzed = 0;
  const int rounds = testing::FuzzRounds(4000);
  for (int round = 0; round < rounds; ++round) {
    std::string text = "SELECT ";
    text += projections[rng() % std::size(projections)];
    text += " FROM ";
    text += froms[rng() % std::size(froms)];
    if (rng() % 2 == 0) {
      text += " WHERE ";
      text += predicates[rng() % std::size(predicates)];
      if (rng() % 3 == 0) {
        text += rng() % 2 == 0 ? " AND " : " OR ";
        text += predicates[rng() % std::size(predicates)];
      }
    }
    text += ";";
    auto statement = ParseStatement(text);
    if (!statement.ok()) continue;
    ++analyzed;
    // Any diagnostics (or none) are fine; crashes are the failure mode.
    auto diags = AnalyzeStatement(db, registry, *statement);
    for (const auto& diag : diags) {
      EXPECT_NE(diag.code(), nullptr);
      EXPECT_FALSE(diag.message.empty()) << text;
    }
  }
  // The pools are parser-shaped: the overwhelming majority must reach the
  // analyzer for this test to mean anything.
  EXPECT_GT(analyzed, 3000u);
}

// Whatever WHERE clause the parser accepts, the predicate compiler must
// survive too — and whenever it compiles, it must agree with the tree
// interpreter on every derived molecule. This drives the compiler with
// parser-shaped predicate soup rather than hand-built expression trees.
TEST(ParserFuzzTest, CompilerSurvivesAndMatchesInterpreterOnFuzzedWhere) {
  Database db("GEO_COMPILE_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok());
  auto molecules = DeriveMolecules(db, *md);
  ASSERT_TRUE(molecules.ok());

  const char* predicates[] = {
      "name = 'x'",
      "hectare > 3.5",
      "state.hectare + 1 > area.hectare",
      "COUNT(point) > COUNT(edge)",
      "COUNT(bogus) = 0",
      "FORALL point (point.x >= 0)",
      "FORALL area (state.name = 'x')",
      "FORALL area (FORALL area (area.name = 'x'))",
      "ghost.attr = 1",
      "state.name = area.name",
      "NOT state.hectare < 2",
      "state.hectare + state.name = 2",
      "point.x / 0.0 > 1",
      "edge.name != 'e12'",
  };
  std::mt19937_64 rng(2028);
  size_t compiled_count = 0;
  size_t batched_count = 0;
  const int rounds = testing::FuzzRounds(600);
  for (int round = 0; round < rounds; ++round) {
    std::string text = "SELECT ALL FROM m(state-area-edge-point) WHERE ";
    text += predicates[rng() % std::size(predicates)];
    for (size_t extra = rng() % 3; extra > 0; --extra) {
      text += rng() % 2 == 0 ? " AND " : " OR ";
      text += predicates[rng() % std::size(predicates)];
    }
    text += ";";
    auto statement = ParseStatement(text);
    if (!statement.ok()) continue;
    const auto* select = std::get_if<SelectStatement>(&*statement);
    ASSERT_NE(select, nullptr) << text;

    auto interpreter = MoleculeQualifier::Create(db, *md, select->where);
    auto scalar = expr::CompiledPredicate::Compile(
        db, *md, select->where, std::nullopt,
        expr::CompiledPredicate::BatchMode::kScalar);
    auto batch = expr::CompiledPredicate::Compile(db, *md, select->where);
    ASSERT_EQ(interpreter.ok(), scalar.ok()) << text;
    ASSERT_EQ(interpreter.ok(), batch.ok()) << text;
    if (!scalar.ok()) {
      EXPECT_EQ(interpreter.status().message(), scalar.status().message())
          << text;
      EXPECT_EQ(interpreter.status().message(), batch.status().message())
          << text;
      continue;
    }
    ++compiled_count;
    if (batch->batch_leaf_count() > 0) ++batched_count;
    expr::CompiledPredicate::Scratch scratch;
    expr::CompiledPredicate::Scratch batch_scratch;
    for (const Molecule& m : *molecules) {
      Result<bool> expected = interpreter->Matches(m);
      Result<bool> actual = scalar->EvalMolecule(m, scratch);
      Result<bool> vectorized = batch->EvalMolecule(m, batch_scratch);
      ASSERT_EQ(expected.ok(), actual.ok()) << text;
      ASSERT_EQ(expected.ok(), vectorized.ok()) << text;
      if (expected.ok()) {
        EXPECT_EQ(*expected, *actual) << text;
        EXPECT_EQ(*expected, *vectorized) << text << " (batch)";
      } else {
        EXPECT_EQ(expected.status().message(), actual.status().message())
            << text;
        EXPECT_EQ(expected.status().message(), vectorized.status().message())
            << text << " (batch)";
      }
    }
  }
  EXPECT_GT(compiled_count, 200u);
  // The pools carry plenty of single-loop attr-vs-literal leaves, so the
  // batch planner must actually fire for this sweep to exercise it.
  EXPECT_GT(batched_count, 0u);
}

// Truncation sweep, but through the analyzer: every prefix that parses
// must analyze without crashing — including prefixes that cut a statement
// at a semantically absurd point.
TEST(ParserFuzzTest, AnalyzerSurvivesTruncatedStatements) {
  Database db("GEO_SEMA_TRUNC_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  const std::map<std::string, MoleculeDescription> registry;

  const std::string statements[] = {
      "SELECT ALL FROM mt_state(state-area-edge-point) "
      "WHERE state.hectare > 1000 AND FORALL point (point.name = 'pn');",
      "SELECT ALL FROM state-[sa*3] WHERE root.hectare + 1 > 2;",
      "UPDATE state SET hectare = hectare + 1 WHERE COUNT(state) = 1;",
      "INSERT INTO state VALUES ('x', 1), ('y', 2);",
  };
  for (const std::string& statement : statements) {
    for (size_t len = 0; len <= statement.size(); ++len) {
      auto prefix = ParseStatement(statement.substr(0, len) + ";");
      if (!prefix.ok()) continue;
      (void)AnalyzeStatement(db, registry, *prefix);
    }
  }
}

}  // namespace
}  // namespace mql
}  // namespace mad
