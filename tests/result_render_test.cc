// A SELECT's result renders at the view the SELECT read at, in process:
// other sessions' uncommitted writes, commits after a pinned snapshot and
// deletions after the SELECT never show in its rows. The single-pass
// renderer is held byte for byte to the multi-pass reference printer over
// GEO and BOM results and over every kind of Value.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "mql/session.h"
#include "server/result_render.h"
#include "storage/database.h"
#include "support/reference_printer.h"
#include "text/printer.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace {

using server::RenderQueryResult;

/// One atom type t(name, v) holding <'x', 1> and <'y', 2>.
void BuildTable(Database& db) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(schema.AddAttribute("v", DataType::kInt64).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(schema)).ok());
  ASSERT_TRUE(db.InsertAtom("t", {Value("x"), Value(int64_t{1})}).ok());
  ASSERT_TRUE(db.InsertAtom("t", {Value("y"), Value(int64_t{2})}).ok());
}

mql::QueryResult Exec(mql::Session& session, const std::string& text) {
  auto result = session.Execute(text);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status();
  return result.ok() ? *std::move(result) : mql::QueryResult();
}

std::string Render(Database& db, const mql::QueryResult& result) {
  ReaderLock lock(db.mutex());
  return RenderQueryResult(db, result);
}

constexpr char kMatchOld[] = "SELECT ALL FROM t WHERE t.v = 1;";

TEST(RenderAtSnapshotTest, AnotherSessionsUncommittedWriteDoesNotRender) {
  Database db("T");
  BuildTable(db);
  mql::Session writer(&db);
  mql::Session reader(&db);
  Exec(writer, "BEGIN;");
  Exec(writer, "UPDATE t SET v = 99 WHERE name = 'x';");
  mql::QueryResult result = Exec(reader, kMatchOld);
  ASSERT_EQ(result.molecules->size(), 1u);
  const std::string text = Render(db, result);
  EXPECT_NE(text.find("<'x', 1>"), std::string::npos) << text;
  EXPECT_EQ(text.find("99"), std::string::npos) << text;
  Exec(writer, "ROLLBACK;");
}

TEST(RenderAtSnapshotTest, PinnedSnapshotRendersThePinnedValue) {
  Database db("T");
  BuildTable(db);
  mql::Session writer(&db);
  mql::Session reader(&db);
  Exec(reader, "SET PIN SNAPSHOT ON;");
  Exec(writer, "UPDATE t SET v = 7 WHERE name = 'x';");
  mql::QueryResult result = Exec(reader, kMatchOld);
  ASSERT_EQ(result.molecules->size(), 1u);
  const std::string text = Render(db, result);
  EXPECT_NE(text.find("<'x', 1>"), std::string::npos) << text;
  EXPECT_EQ(text.find("<'x', 7>"), std::string::npos) << text;
}

TEST(RenderAtSnapshotTest, AtomDeletedAfterTheSelectRendersItsSnapshotValue) {
  Database db("T");
  BuildTable(db);
  mql::Session writer(&db);
  mql::Session reader(&db);
  mql::QueryResult result = Exec(reader, kMatchOld);
  ASSERT_EQ(result.molecules->size(), 1u);
  Exec(writer, "DELETE FROM t WHERE name = 'x';");
  const std::string text = Render(db, result);
  EXPECT_NE(text.find("<'x', 1>"), std::string::npos) << text;
  EXPECT_EQ(text.find("?>"), std::string::npos) << text;
}

TEST(RenderAtSnapshotTest, RecursiveResultRendersAtItsView) {
  Database db("BOM");
  ASSERT_TRUE(workload::BuildCarBom(db).ok());
  mql::Session writer(&db);
  mql::Session reader(&db);
  mql::QueryResult result = Exec(
      reader, "SELECT ALL FROM part-[composition*] WHERE root.name = 'car';");
  ASSERT_EQ(result.recursive.size(), 1u);
  const std::string before = Render(db, result);
  Exec(writer, "UPDATE part SET cost = cost + 1;");
  Exec(writer, "DELETE FROM part WHERE name = 'bolt';");
  EXPECT_EQ(Render(db, result), before);
}

TEST(RenderAtSnapshotTest, EveryCopyOfAResultSharesItsPinUntilTheLastGoes) {
  Database db("T");
  BuildTable(db);
  mql::Session writer(&db);
  mql::Session reader(&db);
  auto pinned = [&db] { return db.GetEpochStats().pinned_readers; };
  std::optional<mql::QueryResult> copy;
  {
    mql::QueryResult result = Exec(reader, kMatchOld);
    EXPECT_EQ(pinned(), 1u);
    copy = result;
  }
  EXPECT_EQ(pinned(), 1u);
  Exec(writer, "UPDATE t SET v = 5 WHERE name = 'x';");
  EXPECT_NE(Render(db, *copy).find("<'x', 1>"), std::string::npos);
  copy.reset();
  EXPECT_EQ(pinned(), 0u);
}

TEST(RenderAtSnapshotTest, OpenReleasesThePinsOfResultsFromTheDatabaseItCloses) {
  namespace fs = std::filesystem;
  const std::string first = ::testing::TempDir() + "render_pin_first";
  const std::string second = ::testing::TempDir() + "render_pin_second";
  fs::remove_all(first);
  fs::remove_all(second);
  Database scratch("SCRATCH");
  mql::Session session(&scratch);
  Exec(session, "OPEN '" + first + "';");
  Exec(session, "CREATE ATOM TYPE t (name STRING, v INT64);");
  Exec(session, "INSERT INTO t VALUES ('x', 1);");
  mql::QueryResult kept = Exec(session, kMatchOld);
  ASSERT_NE(kept.pin, nullptr);
  EXPECT_TRUE(kept.pin->pinned());
  // The first database closes here; the kept result must not keep a pin
  // into it (its destructor would release against a closed database).
  Exec(session, "OPEN '" + second + "';");
  EXPECT_FALSE(kept.pin->pinned());
  fs::remove_all(first);
  fs::remove_all(second);
}

// ---- The single-pass renderer against the reference printer ---------------

/// Every statement's rendering equals the reference printer's, byte for
/// byte, with the stats footer included (both print the same stats).
void ExpectSameBytes(Database& db, mql::Session& session,
                     const std::vector<std::string>& statements,
                     size_t max_items = 32) {
  for (const std::string& text : statements) {
    mql::QueryResult result = Exec(session, text);
    ReaderLock lock(db.mutex());
    EXPECT_EQ(RenderQueryResult(db, result, max_items),
              reference::RenderQueryResult(db, result, max_items))
        << text;
  }
}

TEST(RenderDifferentialTest, GeoResultsMatchTheReferencePrinter) {
  Database db("GEO_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  mql::Session session(&db);
  const std::vector<std::string> statements = {
      "SELECT ALL FROM map(state-area-edge-point);",
      "SELECT ALL FROM map WHERE state.name = 'SP';",
      "SELECT state.name, area.hectare, point.x FROM map;",
      "SELECT state.name FROM map WHERE point.x >= 0;",
      "SELECT ALL FROM city-point-edge-(area-state,net-river) "
      "WHERE city.name = 'Brasilia';",
      "SELECT ALL FROM river-net-edge;",
  };
  ExpectSameBytes(db, session, statements);
  ExpectSameBytes(db, session, statements, 2);
  ExpectSameBytes(db, session, statements, 0);
}

TEST(RenderDifferentialTest, ScaledGeoResultsMatchTheReferencePrinter) {
  Database db("SCALED");
  workload::GeoScale scale;
  scale.states = 40;
  scale.rivers = 9;
  ASSERT_TRUE(workload::GenerateScaledGeo(db, scale).ok());
  mql::Session session(&db);
  ExpectSameBytes(db, session,
                  {"SELECT ALL FROM map(state-area-edge-point);",
                   "SELECT state.name, area.hectare, point.x FROM map;",
                   "SELECT ALL FROM map WHERE point.x > 50;"});
}

TEST(RenderDifferentialTest, BomResultsMatchTheReferencePrinter) {
  Database db("BOM");
  workload::BomScale scale;
  scale.depth = 4;
  ASSERT_TRUE(workload::GenerateBom(db, scale).ok());
  mql::Session session(&db);
  ExpectSameBytes(db, session,
                  {"SELECT ALL FROM part-[composition*];",
                   "SELECT ALL FROM part-[composition~*];",
                   "SELECT ALL FROM part-[composition*2];"});
  ExpectSameBytes(db, session, {"SELECT ALL FROM part-[composition*];"}, 3);

  Database car("CAR");
  ASSERT_TRUE(workload::BuildCarBom(car).ok());
  mql::Session car_session(&car);
  ExpectSameBytes(car, car_session,
                  {"SELECT ALL FROM part-[composition*] WHERE root.name = "
                   "'car';",
                   "SELECT ALL FROM part-[composition*] WHERE part.name = "
                   "'bolt';"});
}

/// Doubles of every class %g formats differently: signed zeros, infinities
/// and NaNs, denormals, the extremes, powers of ten around the switch to
/// scientific notation, values that round up a digit, and random bit
/// patterns.
std::vector<double> DoubleCases() {
  using limits = std::numeric_limits<double>;
  std::vector<double> cases = {
      0.0, -0.0, limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(), limits::denorm_min(),
      -limits::denorm_min(), limits::min(), limits::max(), -limits::max(),
      limits::epsilon(), 1.0, -1.0, 0.1, 1e-5, 1e-4, 123456.0, 999999.5,
      1234567.0, 9.999995, 0.00001234565, 1e15, 1e16, 1e100, 1e-300};
  for (int e = -1074; e <= 1023; e += 7) {
    const double p = std::ldexp(1.0, e);
    cases.push_back(p);
    cases.push_back(-p * 1.7);
    cases.push_back(std::nextafter(p, 0.0));
  }
  std::mt19937_64 rng(20);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t bits = rng();
    double d;
    static_assert(sizeof(d) == sizeof(bits));
    std::memcpy(&d, &bits, sizeof(d));
    cases.push_back(d);
  }
  return cases;
}

TEST(RenderDifferentialTest, ValueTextMatchesTheReferenceForEveryKind) {
  for (double d : DoubleCases()) {
    EXPECT_EQ(Value(d).ToString(), reference::ValueText(Value(d)))
        << std::hexfloat << d;
  }
  for (const Value& v :
       {Value(), Value(true), Value(false),
        Value(std::numeric_limits<int64_t>::min()),
        Value(std::numeric_limits<int64_t>::max()), Value(int64_t{0}),
        Value("it's"), Value("two\nlines"), Value("")}) {
    EXPECT_EQ(v.ToString(), reference::ValueText(v));
  }
}

TEST(RenderDifferentialTest, EveryValueKindRendersLikeTheReference) {
  Database db("VALUES");
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("s", DataType::kString).ok());
  ASSERT_TRUE(schema.AddAttribute("i", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("d", DataType::kDouble).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kBool).ok());
  ASSERT_TRUE(db.DefineAtomType("v", std::move(schema)).ok());
  const std::vector<double> doubles = DoubleCases();
  const std::vector<std::string> strings = {
      "plain", "it's", "two\nlines", "\n", "ends\n", "a\n\nb", "", "  "};
  for (size_t k = 0; k < 400; ++k) {
    std::vector<Value> row = {
        Value(strings[k % strings.size()]),
        k % 3 == 0 ? Value(std::numeric_limits<int64_t>::min() + int64_t(k))
                   : Value(std::numeric_limits<int64_t>::max() - int64_t(k)),
        Value(doubles[k * 131 % doubles.size()]), Value(k % 2 == 0)};
    if (k % 7 == 0) row[k % 4] = Value();  // NULL in every column
    ASSERT_TRUE(db.InsertAtom("v", std::move(row)).ok());
  }
  mql::Session session(&db);
  ExpectSameBytes(db, session, {"SELECT ALL FROM vals(v);"}, 400);
  ExpectSameBytes(db, session, {"SELECT ALL FROM vals;"}, 5);
  ReaderLock lock(db.mutex());
  auto at = db.GetAtomType("v");
  ASSERT_TRUE(at.ok());
  // Head-reading printers share the same append routines.
  for (const Atom& atom : (*at)->occurrence().atoms()) {
    std::string expected = "<";
    for (size_t i = 0; i < atom.values.size(); ++i) {
      if (i > 0) expected += ", ";
      expected += reference::ValueText(atom.values[i]);
    }
    expected += ">";
    EXPECT_EQ(text::FormatAtom(db, "v", atom.id), expected);
  }
}

}  // namespace
}  // namespace mad
