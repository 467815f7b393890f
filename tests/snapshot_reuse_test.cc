// A session keeps the derivation snapshot of an unseeded SELECT and derives
// later SELECTs over the same description on it. Reuse must never be
// stale: after every kind of change to the stores or to the session's view
// — another session's writes, rolled-back and committed transactions, an
// open transaction's pending writes, PIN SNAPSHOT, dropping and redefining
// a type, OPEN — each SELECT must return exactly what a fresh session
// returns at the same view. A concurrent writer checks the same against
// derivations at each result's epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "expr/compile.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "mql/session.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

/// Unseeded, pushed-filter, scan-seeded, index-seeded, residual and
/// projected SELECTs over one description.
const char* const kQueries[] = {
    "SELECT ALL FROM m(state-area-edge-point);",
    "SELECT ALL FROM m(state-area-edge-point) WHERE point.x >= 4;",
    "SELECT ALL FROM m(state-area-edge-point) WHERE state.hectare > 1000;",
    "SELECT ALL FROM m(state-area-edge-point) WHERE state.name = 'SP';",
    "SELECT ALL FROM m(state-area-edge-point) "
    "WHERE state.hectare >= 900 OR point.y > 10;",
    "SELECT state.name, point.x FROM m(state-area-edge-point) "
    "WHERE area.hectare < 1200;",
};
constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);

/// The molecules of a SELECT as text, in result order: root, the atoms of
/// each node, and the links.
std::string Canonical(const QueryResult& result) {
  if (result.molecules == nullptr) return "<no molecules>";
  std::string out;
  auto id = [&out](AtomId atom) { out.append(std::to_string(atom.value)); };
  for (MoleculeView m : result.molecules->molecules()) {
    out.append("#");
    id(m.root());
    out.append(" [");
    for (size_t i = 0; i < m.node_count(); ++i) {
      if (i > 0) out.append(" |");
      for (AtomId atom : m.AtomsOf(i)) {
        out.append(" ");
        id(atom);
      }
    }
    out.append(" ] links");
    for (const MoleculeLink& link : m.links()) {
      out.append(" ").append(std::to_string(link.edge_index)).append(":");
      id(link.parent);
      out.append(">");
      id(link.child);
    }
    out.append("\n");
  }
  return out;
}

std::string Select(Session& session, const std::string& query) {
  auto result = session.Execute(query);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status();
  return result.ok() ? Canonical(*result) : "<error>";
}

/// Runs a script that must succeed.
void Exec(Session& session, const std::string& script) {
  auto results = session.ExecuteScript(script);
  ASSERT_TRUE(results.ok()) << script << ": " << results.status();
}

/// The note of the last `derive` span of a traced statement.
std::string DeriveNote(const QueryResult& result) {
  std::string note = "<no derive span>";
  if (result.trace == nullptr) return note;
  for (const TraceSpan& span : result.trace->spans()) {
    if (span.name == "derive") note = span.note;
  }
  return note;
}

SessionOptions Traced() {
  SessionOptions options;
  options.trace = true;
  return options;
}

class SnapshotReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db_).ok());
    ASSERT_TRUE(db_.CreateIndex("state", "name").ok());
  }

  /// Runs every query on `session`, starting at a different query each
  /// time so that each kind of SELECT is sometimes the first one after a
  /// change, and expects what a fresh session on the same database returns
  /// at that moment.
  void ExpectMatchesFresh(Session& session, const std::string& when) {
    const size_t first = checks_++ % kQueryCount;
    for (size_t k = 0; k < kQueryCount; ++k) {
      const char* query = kQueries[(first + k) % kQueryCount];
      const std::string reused = Select(session, query);
      Session fresh(&session.database());
      EXPECT_EQ(reused, Select(fresh, query)) << when << ": " << query;
    }
  }

  Database db_{"GEO_DB"};
  size_t checks_ = 0;
};

TEST_F(SnapshotReuseTest, SecondUnseededSelectAdmitsNothing) {
  Session session(&db_);
  const std::string query =
      "EXPLAIN ANALYZE SELECT ALL FROM m(state-area-edge-point);";
  auto first = session.Execute(query);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(DeriveNote(*first), "43 atoms admitted");
  auto second = session.Execute(query);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(DeriveNote(*second), "0 atoms admitted");
  EXPECT_NE(second->message.find("derive [0 atoms admitted]"),
            std::string::npos)
      << second->message;
  // The derivation counters do not depend on whether the snapshot was
  // reused.
  ASSERT_TRUE(first->derivation.has_value());
  ASSERT_TRUE(second->derivation.has_value());
  EXPECT_EQ(first->derivation->roots, second->derivation->roots);
  EXPECT_EQ(first->derivation->atoms_visited,
            second->derivation->atoms_visited);
  EXPECT_EQ(first->derivation->links_scanned,
            second->derivation->links_scanned);
}

TEST_F(SnapshotReuseTest, AnyLaterSelectOverTheDescriptionReuses) {
  Session session(&db_, Traced());
  auto all = session.Execute(kQueries[0]);
  ASSERT_TRUE(all.ok()) << all.status();
  for (size_t k = 1; k < kQueryCount; ++k) {
    auto reused = session.Execute(kQueries[k]);
    ASSERT_TRUE(reused.ok()) << kQueries[k] << ": " << reused.status();
    EXPECT_EQ(DeriveNote(*reused), "0 atoms admitted") << kQueries[k];
  }
  // A seeded SELECT on a fresh session grows only its reach, and leaves
  // nothing behind: the next unseeded SELECT grows the whole snapshot.
  Session seeded(&db_, Traced());
  auto one = seeded.Execute(kQueries[3]);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(DeriveNote(*one), "5 atoms admitted");
  auto again = seeded.Execute(kQueries[0]);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(DeriveNote(*again), "43 atoms admitted");
  // Another description is derived on a fresh engine.
  auto other = session.Execute("SELECT ALL FROM state-area;");
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(DeriveNote(*other), "20 atoms admitted");
}

TEST_F(SnapshotReuseTest, OtherSessionsWritesAreSeen) {
  Session session(&db_);
  ExpectMatchesFresh(session, "initial");
  ExpectMatchesFresh(session, "unchanged");
  Session other(&db_);
  Exec(other, "INSERT INTO state VALUES ('XX', 5000);");
  ExpectMatchesFresh(session, "after INSERT");
  Exec(other, "UPDATE point SET x = 100.0 WHERE name = 'p2';");
  ExpectMatchesFresh(session, "after UPDATE of a point");
  Exec(other, "UPDATE state SET hectare = 10 WHERE name = 'BA';");
  ExpectMatchesFresh(session, "after UPDATE of a state");
  Exec(other, "DELETE FROM point WHERE name = 'p3';");
  ExpectMatchesFresh(session, "after DELETE");
  Exec(other, "INSERT LINK [state-area] FROM (name = 'XX') TO (name = 'a1');");
  ExpectMatchesFresh(session, "after INSERT LINK");
}

TEST_F(SnapshotReuseTest, TransactionsAreSeen) {
  Session session(&db_);
  Session writer(&db_);
  ExpectMatchesFresh(session, "initial");
  ExpectMatchesFresh(writer, "writer initial");

  // Rolled back: the stores changed and changed back.
  Exec(writer,
       "BEGIN;"
       "INSERT INTO state VALUES ('YY', 7000);"
       "UPDATE point SET y = 0.5 WHERE name = 'p4';"
       "DELETE FROM area WHERE name = 'a7';"
       "ROLLBACK;");
  ExpectMatchesFresh(session, "after a rolled-back transaction");
  ExpectMatchesFresh(writer, "writer after its rollback");

  // Committed.
  Exec(writer,
       "BEGIN;"
       "INSERT INTO state VALUES ('ZZ', 3000);"
       "INSERT LINK [state-area] FROM (name = 'ZZ') TO (name = 'a2');"
       "UPDATE point SET x = 0.25 WHERE name = 'p5';"
       "COMMIT;");
  ExpectMatchesFresh(session, "after a committed transaction");
  ExpectMatchesFresh(writer, "writer after its commit");
}

TEST_F(SnapshotReuseTest, OpenTransactionsPendingWrites) {
  Session session(&db_);
  Session writer(&db_);
  ExpectMatchesFresh(session, "initial");
  ExpectMatchesFresh(writer, "writer initial");
  Exec(writer,
       "BEGIN;"
       "INSERT INTO state VALUES ('QQ', 4000);"
       "INSERT LINK [state-area] FROM (name = 'QQ') TO (name = 'a5');"
       "UPDATE point SET x = 50.0 WHERE name = 'p6';"
       "DELETE FROM edge WHERE name = 'e3';");
  // Another session reads past the pending writes, as a fresh one does.
  ExpectMatchesFresh(session, "beside another session's open transaction");

  // The writer reads its own writes. A fresh session sees the same state
  // once they commit, so compare with that.
  std::vector<std::string> own;
  for (const char* query : kQueries) own.push_back(Select(writer, query));
  // Twice: the second round must not reuse anything stale either.
  for (size_t k = 0; k < kQueryCount; ++k) {
    EXPECT_EQ(Select(writer, kQueries[k]), own[k]) << kQueries[k];
  }
  Exec(writer, "COMMIT;");
  Session fresh(&db_);
  for (size_t k = 0; k < kQueryCount; ++k) {
    EXPECT_EQ(own[k], Select(fresh, kQueries[k])) << kQueries[k];
  }
  ExpectMatchesFresh(session, "after the commit");
  ExpectMatchesFresh(writer, "writer after the commit");
}

TEST_F(SnapshotReuseTest, PinnedSnapshotIsSeen) {
  Session session(&db_);
  ExpectMatchesFresh(session, "initial");
  Exec(session, "SET PIN SNAPSHOT ON;");
  ExpectMatchesFresh(session, "pinned, nothing committed since");
  // A fresh session pinned at the same epoch, which runs no SELECT until
  // the commit below has happened.
  Session pinned_fresh(&db_);
  Exec(pinned_fresh, "SET PIN SNAPSHOT ON;");
  Session other(&db_);
  Exec(other, "INSERT INTO state VALUES ('PP', 6000);");
  Exec(other, "UPDATE point SET x = 70.0 WHERE name = 'p7';");
  for (const char* query : kQueries) {
    EXPECT_EQ(Select(session, query), Select(pinned_fresh, query)) << query;
  }
  Exec(session, "SET PIN SNAPSHOT OFF;");
  ExpectMatchesFresh(session, "unpinned");
}

TEST_F(SnapshotReuseTest, DroppedAndRedefinedTypeIsSeen) {
  Session session(&db_);
  ExpectMatchesFresh(session, "initial");
  // Dropping point drops edge-point with it; both come back at once,
  // possibly at the freed stores' addresses, with other contents.
  ASSERT_TRUE(db_.DropAtomType("point").ok());
  Schema point;
  ASSERT_TRUE(point.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(point.AddAttribute("x", DataType::kDouble).ok());
  ASSERT_TRUE(point.AddAttribute("y", DataType::kDouble).ok());
  ASSERT_TRUE(db_.DefineAtomType("point", std::move(point)).ok());
  ASSERT_TRUE(db_.DefineLinkType("edge-point", "edge", "point").ok());
  Session other(&db_);
  Exec(other,
       "INSERT INTO point VALUES ('q1', 9.0, 1.0), ('q2', 2.0, 30.0);"
       "INSERT LINK [edge-point] FROM (name = 'e1') TO (name = 'q1');"
       "INSERT LINK [edge-point] FROM (name = 'e2') TO (name = 'q2');");
  ExpectMatchesFresh(session, "after dropping and redefining point");
}

TEST_F(SnapshotReuseTest, DescriptionsOfOtherSizesShareTheScratch) {
  // One session assembles every SELECT's molecules in the same scratch
  // set, on its kept snapshot or on a fresh engine, whatever the
  // description's node count; each answer must still match a fresh
  // session's.
  const char* const queries[] = {
      kQueries[0], "SELECT ALL FROM state-area;", kQueries[3],
      "SELECT ALL FROM area-edge;", kQueries[5], kQueries[0]};
  Session session(&db_);
  for (const char* query : queries) {
    Session fresh(&db_);
    EXPECT_EQ(Select(session, query), Select(fresh, query)) << query;
  }
  Exec(session, "UPDATE state SET hectare = 10 WHERE name = 'BA';");
  for (const char* query : queries) {
    Session fresh(&db_);
    EXPECT_EQ(Select(session, query), Select(fresh, query)) << query;
  }
}

TEST_F(SnapshotReuseTest, OpenSwitchesDatabases) {
  const std::string dir = ::testing::TempDir() + "snapshot_reuse_open";
  std::filesystem::remove_all(dir);
  Session session(&db_);
  ExpectMatchesFresh(session, "initial");
  Exec(session, "OPEN '" + dir + "';");
  ASSERT_NE(&session.database(), &db_);
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(session.database()).ok());
  Exec(session, "UPDATE state SET hectare = 5 WHERE name = 'BA';");
  ExpectMatchesFresh(session, "after OPEN");
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotReuseTest, ConcurrentWriterNeverMakesReuseStale) {
  // A long-lived pin keeps every version the writer replaces, so each
  // SELECT can be checked afterwards against a fresh engine at its epoch.
  std::optional<EpochPin> keep_versions;
  {
    ReaderLock lock(db_.mutex());
    keep_versions.emplace(db_.PinEpoch());
  }
  auto md = MoleculeDescription::CreateFromTypes(
      db_, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok()) << md.status();

  // The reader counts the SELECT pairs it finishes. Every third write, the
  // writer waits for two more: the second of them starts after the write
  // and ends before the next one, so it reads an unchanged head and must
  // reuse the kept snapshot at least for its second SELECT.
  std::atomic<size_t> pairs{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Session session(&db_);
    for (int i = 0; i < 60; ++i) {
      // Insert point w<i>, move an existing point, or link w<i-2> to an
      // edge, in turn.
      const std::string n = std::to_string(i);
      std::string statement;
      if (i % 3 == 0) {
        statement =
            "INSERT INTO point VALUES ('w" + n + "', " + n + ".0, 1.0);";
      } else if (i % 3 == 1) {
        statement = "UPDATE point SET x = " + n + ".5 WHERE name = 'p" +
                    std::to_string(2 + i % 11) + "';";
      } else {
        statement = "INSERT LINK [edge-point] FROM (name = 'e" +
                    std::to_string(1 + i % 12) + "') TO (name = 'w" +
                    std::to_string(i - 2) + "');";
      }
      auto result = session.Execute(statement);
      EXPECT_TRUE(result.ok()) << statement << ": " << result.status();
      if (i % 3 == 2) {
        const size_t after_write = pairs.load();
        while (pairs.load() < after_write + 2) std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    done = true;
  });

  Session session(&db_, Traced());
  std::vector<std::pair<uint64_t, std::string>> seen;
  size_t reused = 0;
  while (!done) {
    for (const char* query : {kQueries[0], kQueries[1]}) {
      auto result = session.Execute(query);
      ASSERT_TRUE(result.ok()) << result.status();
      seen.emplace_back(result->epoch, Canonical(*result));
      reused += DeriveNote(*result) == "0 atoms admitted" ? 1 : 0;
    }
    ++pairs;
  }
  writer.join();
  EXPECT_GT(reused, 0u);

  // The oracle: a fresh engine at each SELECT's epoch, with the second
  // query's WHERE pushed to the point node (index 3) as the planner does.
  ReaderLock lock(db_.mutex());
  for (size_t k = 0; k < seen.size(); ++k) {
    DerivationOptions options;
    options.view = ReadView{seen[k].first, 0};
    std::optional<expr::CompiledPredicate> filter;
    if (k % 2 == 1) {
      auto compiled = expr::CompiledPredicate::Compile(
          db_, *md, expr::Ge(expr::Attr("point", "x"), expr::Lit(4.0)),
          options.view);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      filter.emplace(std::move(*compiled));
      options.node_filters.emplace_back(3, &*filter);
    }
    auto molecules = DeriveMolecules(db_, *md, options);
    ASSERT_TRUE(molecules.ok()) << molecules.status();
    QueryResult expected;
    expected.molecules =
        std::make_shared<MoleculeType>("m", *md, std::move(*molecules));
    EXPECT_EQ(seen[k].second, Canonical(expected))
        << kQueries[k % 2] << " at epoch " << seen[k].first;
  }
}

}  // namespace
}  // namespace mql
}  // namespace mad
