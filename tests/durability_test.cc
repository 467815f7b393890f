#include "storage/durable_database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "mql/session.h"
#include "storage/binary_codec.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "text/printer.h"

namespace mad {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "durability_" + name;
  fs::remove_all(dir);
  return dir;
}

Result<std::string> ReadFile(const std::string& path) {
  return ReadFileToString(path);
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A mutation mix covering every WAL record kind, including the cascades
/// with special replay rules: DeleteAtom (implicit link erases are not
/// logged) and DropAtomType (cascaded link-type drops are logged and must
/// replay idempotently).
void RunWorkload(Database& db) {
  Schema part_schema;
  ASSERT_TRUE(part_schema.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(part_schema.AddAttribute("weight", DataType::kDouble).ok());
  ASSERT_TRUE(db.DefineAtomType("part", part_schema).ok());
  ASSERT_TRUE(db.DefineAtomType("supplier", Schema()).ok());
  ASSERT_TRUE(db.DefineLinkType("composition", "part", "part",
                                LinkCardinality::kManyToMany)
                  .ok());
  ASSERT_TRUE(db.DefineLinkType("supplies", "supplier", "part").ok());

  auto car = db.InsertAtom("part", {Value("car"), Value(1200.5)});
  auto wheel = db.InsertAtom(
      "part", {Value("wheel"), Value(std::numeric_limits<double>::infinity())});
  auto bolt = db.InsertAtom(
      "part",
      {Value("bolt"), Value(std::numeric_limits<double>::quiet_NaN())});
  auto acme = db.InsertAtom("supplier", {});
  ASSERT_TRUE(car.ok() && wheel.ok() && bolt.ok() && acme.ok());

  ASSERT_TRUE(db.InsertLink("composition", *car, *wheel).ok());
  ASSERT_TRUE(db.InsertLink("composition", *wheel, *bolt).ok());
  ASSERT_TRUE(db.InsertLink("supplies", *acme, *bolt).ok());

  ASSERT_TRUE(db.CreateIndex("part", "name").ok());
  ASSERT_TRUE(db.UpdateAtom("part", *wheel, {Value("wheel 17\""), Value(-0.0)})
                  .ok());
  ASSERT_TRUE(db.EraseLink("composition", *car, *wheel).ok());
  // Cascades: deleting bolt erases its remaining composition + supplies
  // links implicitly.
  ASSERT_TRUE(db.DeleteAtom("part", *bolt).ok());
  ASSERT_TRUE(db.DropIndex("part", "name").ok());
  // Drop the supplier type; the supplies link type cascades away with it.
  ASSERT_TRUE(db.DropAtomType("supplier").ok());
}

TEST(DurableDatabaseTest, FreshDirectoryStartsAtGenerationZero) {
  std::string dir = TestDir("fresh");
  auto durable = DurableDatabase::Open(dir, {.database_name = "mydb"});
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ((*durable)->database().name(), "mydb");
  EXPECT_EQ((*durable)->generation(), 0u);
  EXPECT_TRUE((*durable)->stats().created_fresh);
  // The empty checkpoint and the WAL exist immediately.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint-0.madb"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "wal-0.log"));
  fs::remove_all(dir);
}

TEST(DurableDatabaseTest, StateSurvivesReopen) {
  std::string dir = TestDir("reopen");
  std::string live_bytes;
  {
    auto durable = DurableDatabase::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    RunWorkload((*durable)->database());
    auto bytes = SerializeDatabaseBinary((*durable)->database());
    ASSERT_TRUE(bytes.ok());
    live_bytes = *bytes;
    ASSERT_TRUE((*durable)->Sync().ok());
    EXPECT_GT((*durable)->stats().records_appended, 0u);
  }
  {
    auto durable = DurableDatabase::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    auto bytes = SerializeDatabaseBinary((*durable)->database());
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, live_bytes) << "recovered state must be bit-identical";
    EXPECT_GT((*durable)->stats().replayed_records, 0u);
    EXPECT_TRUE((*durable)->database().CheckConsistency().ok());
  }
  fs::remove_all(dir);
}

TEST(DurableDatabaseTest, CheckpointRotatesAndCollectsGarbage) {
  std::string dir = TestDir("checkpoint");
  auto durable = DurableDatabase::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  Database& db = (*durable)->database();

  ASSERT_TRUE(db.DefineAtomType("t", Schema()).ok());
  ASSERT_TRUE((*durable)->Checkpoint().ok());
  EXPECT_EQ((*durable)->generation(), 1u);
  ASSERT_TRUE(db.InsertAtom("t", {}).ok());
  ASSERT_TRUE((*durable)->Checkpoint().ok());
  EXPECT_EQ((*durable)->generation(), 2u);
  ASSERT_TRUE(db.InsertAtom("t", {}).ok());
  ASSERT_TRUE((*durable)->Sync().ok());

  // keep_generations=1: generation 0 collected, 1 kept as fallback.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "checkpoint-0.madb"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "wal-0.log"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint-1.madb"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint-2.madb"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "wal-2.log"));
  EXPECT_EQ((*durable)->stats().checkpoint_count, 2u);

  // Reopen resumes at generation 2 and replays its one-record WAL.
  durable = DurableDatabase::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ((*durable)->generation(), 2u);
  EXPECT_EQ((*durable)->stats().replayed_records, 1u);
  EXPECT_EQ((*durable)->database().total_atom_count(), 2u);
  fs::remove_all(dir);
}

TEST(DurableDatabaseTest, FallsBackToOlderCheckpointWhenNewestCorrupt) {
  std::string dir = TestDir("fallback");
  {
    auto durable = DurableDatabase::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    Database& db = (*durable)->database();
    ASSERT_TRUE(db.DefineAtomType("t", Schema()).ok());
    ASSERT_TRUE(db.InsertAtom("t", {}).ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());  // generation 1
  }
  // Flip a byte deep inside checkpoint-1; recovery must fall back to
  // checkpoint-0 + wal-0, which reproduce the same state.
  std::string ckpt_path = (fs::path(dir) / "checkpoint-1.madb").string();
  auto bytes = ReadFile(ckpt_path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() - 10] ^= 0x20;
  WriteFile(ckpt_path, corrupt);

  auto durable = DurableDatabase::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ((*durable)->generation(), 0u);
  EXPECT_EQ((*durable)->stats().checkpoints_skipped, 1u);
  EXPECT_EQ((*durable)->database().total_atom_count(), 1u);
  EXPECT_TRUE((*durable)->database().CheckConsistency().ok());
  fs::remove_all(dir);
}

/// Occurrence order as derivation and lookups see it: `part` head order,
/// the `composition` partners of `root`, and the `kind = 'k'` index bucket,
/// each as a list of names.
std::string OrderDigest(const Database& db, AtomId root) {
  ReaderLock lock(db.mutex());
  auto part = db.GetAtomType("part");
  auto comp = db.GetLinkType("composition");
  auto bucket = db.LookupByAttribute("part", "kind", Value("k"));
  if (!part.ok() || !comp.ok() || !bucket.ok()) return "?";
  const AtomStore& store = (*part)->occurrence();
  auto names = [&](const std::vector<AtomId>& ids) {
    std::string out;
    for (AtomId id : ids) {
      const Atom* atom = store.Find(id);
      out += (atom != nullptr ? atom->values[0].AsString() : "?") + ",";
    }
    return out;
  };
  std::vector<AtomId> head;
  for (const Atom& atom : store.atoms()) head.push_back(atom.id);
  return names(head) + "|" +
         names((*comp)->occurrence().Partners(root, LinkDirection::kForward)) +
         "|" + names(*bucket);
}

/// A transaction's writes reach the WAL at COMMIT, so replay applies them
/// after every write committed while the transaction was open. The live
/// head, partner lists and index buckets must already be in that order,
/// or recovery would bring them back in another occurrence order.
TEST(DurableDatabaseTest, TransactionWritesReplayInCommitOrder) {
  std::string dir = TestDir("commit_order");
  AtomId root;
  std::string live_order;
  std::string live_bytes;
  {
    auto durable = DurableDatabase::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    Database& db = (*durable)->database();
    Schema schema;
    ASSERT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    ASSERT_TRUE(schema.AddAttribute("kind", DataType::kString).ok());
    ASSERT_TRUE(db.DefineAtomType("part", schema).ok());
    ASSERT_TRUE(db.DefineLinkType("composition", "part", "part").ok());
    ASSERT_TRUE(db.CreateIndex("part", "kind").ok());
    auto a = db.InsertAtom("part", {Value("a"), Value("k")});
    auto b = db.InsertAtom("part", {Value("b"), Value("k")});
    auto c = db.InsertAtom("part", {Value("c"), Value("k")});
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    root = *c;

    std::unique_ptr<Transaction> txn = db.Begin();
    ASSERT_TRUE(
        db.UpdateAtom("part", *a, {Value("a2"), Value("k")}, txn.get()).ok());
    auto x = db.InsertAtom("part", {Value("x"), Value("k")}, txn.get());
    ASSERT_TRUE(x.ok());
    ASSERT_TRUE(db.InsertLink("composition", *c, *x, txn.get()).ok());
    // Autocommit writes land between the transaction's statements and its
    // commit, and reach the WAL first.
    ASSERT_TRUE(db.UpdateAtom("part", *b, {Value("b2"), Value("k")}).ok());
    auto y = db.InsertAtom("part", {Value("y"), Value("k")});
    ASSERT_TRUE(y.ok());
    ASSERT_TRUE(db.InsertLink("composition", *c, *y).ok());
    ASSERT_TRUE(txn->Commit().ok());

    live_order = OrderDigest(db, root);
    EXPECT_EQ(live_order, "c,b2,y,a2,x,|y,x,|c,b2,y,a2,x,");
    EXPECT_TRUE(db.CheckConsistency().ok());
    auto bytes = SerializeDatabaseBinary(db);
    ASSERT_TRUE(bytes.ok());
    live_bytes = *bytes;
    ASSERT_TRUE((*durable)->Sync().ok());
  }
  auto durable = DurableDatabase::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ(OrderDigest((*durable)->database(), root), live_order);
  auto bytes = SerializeDatabaseBinary((*durable)->database());
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, live_bytes);
  EXPECT_TRUE((*durable)->database().CheckConsistency().ok());
  fs::remove_all(dir);
}

/// Rolling back a DELETE or an UPDATE puts the atom back at its old head
/// position; its index entries must go back to the same place in their
/// buckets, or an index lookup orders atoms differently from a scan — live,
/// and against the rebuilt index after reopening.
TEST(DurableDatabaseTest, RollbackKeepsIndexBucketsInHeadOrder) {
  std::string dir = TestDir("rollback_bucket_order");
  AtomId root;
  std::string live_order;
  {
    auto durable = DurableDatabase::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    Database& db = (*durable)->database();
    Schema schema;
    ASSERT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    ASSERT_TRUE(schema.AddAttribute("kind", DataType::kString).ok());
    ASSERT_TRUE(db.DefineAtomType("part", schema).ok());
    ASSERT_TRUE(db.DefineLinkType("composition", "part", "part").ok());
    ASSERT_TRUE(db.CreateIndex("part", "kind").ok());
    auto a = db.InsertAtom("part", {Value("a"), Value("k")});
    auto b = db.InsertAtom("part", {Value("b"), Value("k")});
    auto c = db.InsertAtom("part", {Value("c"), Value("k")});
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    root = *a;
    ASSERT_TRUE(db.InsertLink("composition", *a, *c).ok());

    std::unique_ptr<Transaction> txn = db.Begin();
    ASSERT_TRUE(db.DeleteAtom("part", *a, txn.get()).ok());
    ASSERT_TRUE(
        db.UpdateAtom("part", *b, {Value("b2"), Value("k")}, txn.get()).ok());
    ASSERT_TRUE(txn->Rollback().ok());

    live_order = OrderDigest(db, root);
    EXPECT_EQ(live_order, "a,b,c,|c,|a,b,c,");
    EXPECT_TRUE(db.CheckConsistency().ok());
    ASSERT_TRUE((*durable)->Sync().ok());
  }
  auto durable = DurableDatabase::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ(OrderDigest((*durable)->database(), root), live_order);
  fs::remove_all(dir);
}

/// The ISSUE's acceptance harness: truncate the WAL at EVERY byte offset
/// and assert recovery always succeeds with a database equal to the state
/// after some prefix of the logged records — never a crash, never a
/// half-applied record.
TEST(DurabilityFaultInjectionTest, TruncationAtEveryByteOffsetRecovers) {
  std::string dir = TestDir("fault_src");
  {
    auto durable = DurableDatabase::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    RunWorkload((*durable)->database());
    ASSERT_TRUE((*durable)->Sync().ok());
  }
  auto checkpoint_bytes =
      ReadFile((fs::path(dir) / "checkpoint-0.madb").string());
  auto wal_bytes = ReadFile((fs::path(dir) / "wal-0.log").string());
  ASSERT_TRUE(checkpoint_bytes.ok() && wal_bytes.ok());
  ASSERT_GT(wal_bytes->size(), 0u);

  // Expected state after each record prefix, built by replaying the full
  // WAL one record at a time on top of the checkpoint. frame_ends[k] is the
  // WAL offset at which prefix k becomes complete.
  WalReadResult full = ReadWal(*wal_bytes);
  ASSERT_FALSE(full.torn_tail);
  ASSERT_GT(full.records.size(), 10u) << "workload must exercise many kinds";
  std::vector<std::string> prefix_state;
  std::vector<size_t> frame_ends;
  {
    auto db = DeserializeDatabaseBinary(*checkpoint_bytes);
    ASSERT_TRUE(db.ok()) << db.status();
    auto snapshot = SerializeDatabaseBinary(**db);
    ASSERT_TRUE(snapshot.ok());
    prefix_state.push_back(*snapshot);
    frame_ends.push_back(0);
    size_t offset = 0;
    for (const WalRecord& record : full.records) {
      ASSERT_TRUE(ApplyWalRecord(record, db->get()).ok());
      offset += 8 + EncodeWalRecordPayload(record).size();
      snapshot = SerializeDatabaseBinary(**db);
      ASSERT_TRUE(snapshot.ok());
      prefix_state.push_back(*snapshot);
      frame_ends.push_back(offset);
    }
    ASSERT_EQ(offset, wal_bytes->size());
  }

  std::string crash_dir = TestDir("fault_crash");
  fs::create_directories(crash_dir);
  WriteFile((fs::path(crash_dir) / "checkpoint-0.madb").string(),
            *checkpoint_bytes);
  for (size_t cut = 0; cut <= wal_bytes->size(); ++cut) {
    WriteFile((fs::path(crash_dir) / "wal-0.log").string(),
              wal_bytes->substr(0, cut));
    auto recovered = RecoverDatabase(crash_dir, "db");
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status();
    // Which record prefix must we see? The largest whose frames fit.
    size_t k = 0;
    while (k + 1 < frame_ends.size() && frame_ends[k + 1] <= cut) ++k;
    EXPECT_EQ(recovered->replayed_records, k) << "cut at " << cut;
    EXPECT_EQ(recovered->wal_torn_tail, cut != frame_ends[k])
        << "cut at " << cut;
    auto snapshot = SerializeDatabaseBinary(*recovered->db);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(*snapshot, prefix_state[k])
        << "cut at " << cut << " must recover the prefix-" << k << " state";
    ASSERT_TRUE(recovered->db->CheckConsistency().ok()) << "cut at " << cut;
  }

  // Bonus: recovery through DurableDatabase::Open truncates the torn tail
  // and stays usable.
  size_t torn_cut = wal_bytes->size() - 3;
  WriteFile((fs::path(crash_dir) / "wal-0.log").string(),
            wal_bytes->substr(0, torn_cut));
  {
    auto durable = DurableDatabase::Open(crash_dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_TRUE(durable.value()->stats().wal_torn_tail);
    ASSERT_TRUE((*durable)->database().DefineAtomType("post", Schema()).ok());
    ASSERT_TRUE((*durable)->Sync().ok());
  }
  {
    auto durable = DurableDatabase::Open(crash_dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_FALSE(durable.value()->stats().wal_torn_tail);
    EXPECT_TRUE((*durable)->database().HasAtomType("post"));
  }
  fs::remove_all(dir);
  fs::remove_all(crash_dir);
}

TEST(MqlDurabilityTest, OpenCheckpointAndSyncStatements) {
  std::string dir = TestDir("mql");
  Database scratch("scratch");
  {
    mql::Session session(&scratch);
    auto opened = session.Execute("OPEN '" + dir + "'");
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_TRUE(opened->durability.has_value());
    EXPECT_TRUE(opened->durability->created_fresh);
    EXPECT_NE(opened->message.find("generation 0"), std::string::npos);

    ASSERT_TRUE(session
                    .Execute("CREATE ATOM TYPE city (name STRING, "
                             "population INT64)")
                    .ok());
    ASSERT_TRUE(session
                    .Execute("INSERT INTO city VALUES ('Rio', 6000000), "
                             "('Berlin', 3500000)")
                    .ok());

    auto sync_on = session.Execute("SET SYNC ON");
    ASSERT_TRUE(sync_on.ok()) << sync_on.status();
    ASSERT_TRUE(session.Execute("INSERT INTO city VALUES ('Pune', 3100000)")
                    .ok());

    auto checkpointed = session.Execute("CHECKPOINT");
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
    ASSERT_TRUE(checkpointed->durability.has_value());
    EXPECT_EQ(checkpointed->durability->generation, 1u);
    // The stats line is printable.
    EXPECT_NE(text::FormatDurabilityStats(*checkpointed->durability).find(
                  "gen 1"),
              std::string::npos);

    auto sync_off = session.Execute("SET SYNC OFF");
    ASSERT_TRUE(sync_off.ok()) << sync_off.status();
  }
  {
    // A second session recovers everything through OPEN.
    Database scratch2("scratch2");
    mql::Session session(&scratch2);
    auto opened = session.Execute("OPEN '" + dir + "'");
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened->durability->generation, 1u);
    auto rows = session.Execute("SELECT ALL FROM city");
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_NE(rows->molecules, nullptr);
    EXPECT_EQ(rows->molecules->molecules().size(), 3u);
  }
  fs::remove_all(dir);
}

TEST(MqlDurabilityTest, CheckpointWithoutOpenFails) {
  Database db("mem");
  mql::Session session(&db);
  auto result = session.Execute("CHECKPOINT");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("OPEN"), std::string::npos);
}

TEST(MqlDurabilityTest, MutationsThroughMqlAreLogged) {
  std::string dir = TestDir("mql_logged");
  {
    Database scratch("scratch");
    mql::Session session(&scratch);
    ASSERT_TRUE(session.Execute("OPEN '" + dir + "'").ok());
    ASSERT_TRUE(session.Execute("CREATE ATOM TYPE t (x INT64)").ok());
    ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
    ASSERT_TRUE(session.Execute("UPDATE t SET x = x + 10 WHERE x = 2").ok());
    ASSERT_TRUE(session.Execute("DELETE FROM t WHERE x = 3").ok());
    ASSERT_TRUE(session.durable()->Sync().ok());
    EXPECT_GE(session.durable()->stats().records_appended, 6u);
  }
  auto recovered = RecoverDatabase(dir, "db");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const auto& atoms =
      (*recovered->db->GetAtomType("t"))->occurrence().atoms();
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0].values[0].AsInt64(), 1);
  EXPECT_EQ(atoms[1].values[0].AsInt64(), 12);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mad
