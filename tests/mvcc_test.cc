// Storage-level MVCC coverage (DESIGN.md §11): snapshot visibility through
// pinned epochs, transaction isolation and rollback, first-writer-wins
// write-write conflicts, version reclamation, and the epoch statistics
// surface.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "util/string_util.h"

namespace mad {
namespace {

Schema NamedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  return s;
}

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.DefineAtomType("part", NamedSchema()).ok());
    ASSERT_TRUE(db_.DefineLinkType("composition", "part", "part").ok());
  }

  // Pins the current epoch the way readers do: under a shared lock.
  EpochPin Pin() {
    ReaderLock lock(db_.mutex());
    return db_.PinEpoch();
  }

  const AtomStore& Parts() {
    auto at = db_.GetAtomType("part");
    EXPECT_TRUE(at.ok());
    return (*at)->occurrence();
  }

  const LinkStore& Compositions() {
    auto lt = db_.GetLinkType("composition");
    EXPECT_TRUE(lt.ok());
    return (*lt)->occurrence();
  }

  Database db_{"MVCC_DB"};
};

TEST_F(MvccTest, EpochAdvancesPerAutocommitMutation) {
  EXPECT_EQ(db_.current_epoch(), 0u);
  auto a = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(db_.current_epoch(), 1u);
  ASSERT_TRUE(db_.UpdateAtom("part", *a, {Value("engine-v2")}).ok());
  EXPECT_EQ(db_.current_epoch(), 2u);
  ASSERT_TRUE(db_.DeleteAtom("part", *a).ok());
  EXPECT_EQ(db_.current_epoch(), 3u);
}

TEST_F(MvccTest, PinnedSnapshotIsImmutableUnderConcurrentWrites) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  auto piston = db_.InsertAtom("part", {Value("piston")});
  ASSERT_TRUE(engine.ok() && piston.ok());
  ASSERT_TRUE(db_.InsertLink("composition", *engine, *piston).ok());

  EpochPin pin = Pin();
  const ReadView view = pin.view();

  // Mutate past the pin: rename, unlink, delete, insert.
  ASSERT_TRUE(db_.UpdateAtom("part", *piston, {Value("piston-v2")}).ok());
  ASSERT_TRUE(db_.EraseLink("composition", *engine, *piston).ok());
  auto valve = db_.InsertAtom("part", {Value("valve")});
  ASSERT_TRUE(valve.ok());
  ASSERT_TRUE(db_.DeleteAtom("part", *engine).ok());

  // Head reflects the new state...
  EXPECT_FALSE(Parts().Contains(*engine));
  EXPECT_TRUE(Parts().Contains(*valve));
  EXPECT_FALSE(Compositions().Contains(*engine, *piston));

  // ...while the snapshot still reads exactly the pinned state.
  EXPECT_FALSE(Parts().HeadVisibleAt(view));
  std::vector<const Atom*> atoms = Parts().SnapshotAt(view);
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0]->id, *engine);
  EXPECT_EQ(atoms[0]->values[0].AsString(), "engine");
  EXPECT_EQ(atoms[1]->id, *piston);
  EXPECT_EQ(atoms[1]->values[0].AsString(), "piston");
  EXPECT_TRUE(Compositions().ContainsAt(*engine, *piston, view));
  std::vector<AtomId> partners =
      Compositions().PartnersAt(*engine, LinkDirection::kForward, view);
  ASSERT_EQ(partners.size(), 1u);
  EXPECT_EQ(partners[0], *piston);
  EXPECT_FALSE(Parts().ContainsAt(*valve, view));
}

TEST_F(MvccTest, TransactionReadsItsOwnWritesOthersDoNot) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());

  std::unique_ptr<Transaction> txn = db_.Begin();
  auto pending = db_.InsertAtom("part", {Value("pending")}, txn.get());
  ASSERT_TRUE(pending.ok());
  ASSERT_TRUE(
      db_.UpdateAtom("part", *engine, {Value("engine-txn")}, txn.get()).ok());

  // The transaction's view sees both of its writes.
  const ReadView mine = txn->view();
  EXPECT_TRUE(Parts().ContainsAt(*pending, mine));
  const Atom* engine_mine = Parts().FindVersionAt(*engine, mine);
  ASSERT_NE(engine_mine, nullptr);
  EXPECT_EQ(engine_mine->values[0].AsString(), "engine-txn");

  // An outside reader at the current epoch sees neither.
  EpochPin pin = Pin();
  const ReadView outside = pin.view();
  EXPECT_FALSE(Parts().ContainsAt(*pending, outside));
  const Atom* engine_outside = Parts().FindVersionAt(*engine, outside);
  ASSERT_NE(engine_outside, nullptr);
  EXPECT_EQ(engine_outside->values[0].AsString(), "engine");

  const uint64_t before = db_.current_epoch();
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db_.current_epoch(), before + 1);

  // Post-commit readers see the published state; the old pin still doesn't.
  EXPECT_TRUE(Parts().Contains(*pending));
  EXPECT_FALSE(Parts().ContainsAt(*pending, outside));
}

TEST_F(MvccTest, RollbackRestoresHeadExactly) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  auto piston = db_.InsertAtom("part", {Value("piston")});
  ASSERT_TRUE(engine.ok() && piston.ok());
  ASSERT_TRUE(db_.InsertLink("composition", *engine, *piston).ok());
  const uint64_t epoch_before = db_.current_epoch();

  std::unique_ptr<Transaction> txn = db_.Begin();
  auto scrap = db_.InsertAtom("part", {Value("scrap")}, txn.get());
  ASSERT_TRUE(scrap.ok());
  ASSERT_TRUE(db_.UpdateAtom("part", *piston, {Value("zz")}, txn.get()).ok());
  ASSERT_TRUE(db_.DeleteAtom("part", *engine, txn.get()).ok());
  EXPECT_GT(txn->op_count(), 0u);
  ASSERT_TRUE(txn->Rollback().ok());

  EXPECT_EQ(db_.current_epoch(), epoch_before);
  EXPECT_FALSE(Parts().Contains(*scrap));
  EXPECT_TRUE(Parts().Contains(*engine));
  const Atom* p = Parts().Find(*piston);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->values[0].AsString(), "piston");
  EXPECT_TRUE(Compositions().Contains(*engine, *piston));
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MvccTest, DestructionOfOpenTransactionRollsBack) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());
  {
    std::unique_ptr<Transaction> txn = db_.Begin();
    ASSERT_TRUE(db_.DeleteAtom("part", *engine, txn.get()).ok());
  }
  EXPECT_TRUE(Parts().Contains(*engine));
  EXPECT_FALSE(db_.HasActiveTransactions());
}

TEST_F(MvccTest, FirstWriterWinsOnPendingHead) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());

  std::unique_ptr<Transaction> a = db_.Begin();
  std::unique_ptr<Transaction> b = db_.Begin();
  ASSERT_TRUE(db_.UpdateAtom("part", *engine, {Value("a")}, a.get()).ok());

  // B touches the atom A has pending: immediate conflict.
  Status s = db_.UpdateAtom("part", *engine, {Value("b")}, b.get());
  EXPECT_TRUE(Database::IsWriteConflict(s)) << s;
  EXPECT_TRUE(Database::IsWriteConflict(db_.DeleteAtom("part", *engine, b.get())));

  // Autocommit writers conflict against A's pending version too.
  EXPECT_TRUE(Database::IsWriteConflict(db_.DeleteAtom("part", *engine)));

  ASSERT_TRUE(a->Commit().ok());

  // B's snapshot predates A's commit: still a conflict (stale write).
  s = db_.UpdateAtom("part", *engine, {Value("b2")}, b.get());
  EXPECT_TRUE(Database::IsWriteConflict(s)) << s;
  ASSERT_TRUE(b->Rollback().ok());

  // A fresh transaction sees A's commit and may write.
  std::unique_ptr<Transaction> c = db_.Begin();
  EXPECT_TRUE(db_.UpdateAtom("part", *engine, {Value("c")}, c.get()).ok());
  ASSERT_TRUE(c->Commit().ok());
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MvccTest, ConflictOnLinksAndReinsertion) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  auto piston = db_.InsertAtom("part", {Value("piston")});
  ASSERT_TRUE(engine.ok() && piston.ok());
  ASSERT_TRUE(db_.InsertLink("composition", *engine, *piston).ok());

  std::unique_ptr<Transaction> a = db_.Begin();
  std::unique_ptr<Transaction> b = db_.Begin();
  ASSERT_TRUE(
      db_.EraseLink("composition", *engine, *piston, a.get()).ok());
  EXPECT_TRUE(Database::IsWriteConflict(
      db_.EraseLink("composition", *engine, *piston, b.get())));
  // Re-adding the link A is erasing would overlap version intervals.
  EXPECT_TRUE(Database::IsWriteConflict(
      db_.InsertLink("composition", *engine, *piston, b.get())));
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Rollback().ok());
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MvccTest, ReclaimHonorsPinsAndFreesAfterRelease) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());

  EpochPin pin = Pin();
  ASSERT_TRUE(db_.UpdateAtom("part", *engine, {Value("v2")}).ok());
  ASSERT_TRUE(db_.UpdateAtom("part", *engine, {Value("v3")}).ok());
  EXPECT_GE(Parts().archived_count(), 2u);

  // The pin keeps both superseded versions alive.
  EXPECT_EQ(db_.ReclaimVersions(), 0u);
  const Atom* old = Parts().FindVersionAt(*engine, pin.view());
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->values[0].AsString(), "engine");

  pin.Release();
  EXPECT_GE(db_.ReclaimVersions(), 2u);
  EXPECT_EQ(Parts().archived_count(), 0u);
  EXPECT_GE(db_.GetEpochStats().reclaimed_versions, 2u);
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

TEST_F(MvccTest, EpochStatsAndActiveTransactions) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());

  EpochPin pin = Pin();
  std::unique_ptr<Transaction> txn = db_.Begin();
  ASSERT_TRUE(db_.UpdateAtom("part", *engine, {Value("x")}, txn.get()).ok());

  EpochStats stats = db_.GetEpochStats();
  EXPECT_EQ(stats.current_epoch, 1u);
  EXPECT_EQ(stats.oldest_pinned, 1u);
  // The reader pin plus the transaction's snapshot pin.
  EXPECT_EQ(stats.pinned_readers, 2u);
  EXPECT_EQ(stats.active_transactions, 1u);

  std::vector<TransactionInfo> open = db_.ActiveTransactions();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].id, txn->id());
  EXPECT_EQ(open[0].snapshot_epoch, 1u);
  // One UPDATE = two undo entries (archive the old version, insert the new).
  EXPECT_EQ(open[0].ops, 2u);

  ASSERT_TRUE(txn->Rollback().ok());
  EXPECT_FALSE(db_.HasActiveTransactions());
}

TEST_F(MvccTest, BackgroundGcReclaimsWithoutPins) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        db_.UpdateAtom("part", *engine, {Value(StrCat({"v", std::to_string(i)}))})
            .ok());
  }
  db_.StartBackgroundGc(std::chrono::milliseconds(1));
  EXPECT_TRUE(db_.gc_running());
  // Wait (bounded) for the collector to drain the archive.
  for (int i = 0; i < 1000 && Parts().archived_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  db_.StopBackgroundGc();
  EXPECT_FALSE(db_.gc_running());
  EXPECT_EQ(Parts().archived_count(), 0u);
}

TEST_F(MvccTest, LookupByAttributeAtResolvesThroughTheView) {
  ASSERT_TRUE(db_.CreateIndex("part", "name").ok());
  auto engine = db_.InsertAtom("part", {Value("engine")});
  ASSERT_TRUE(engine.ok());

  EpochPin pin = Pin();
  ASSERT_TRUE(db_.UpdateAtom("part", *engine, {Value("rotor")}).ok());

  // Head lookup finds the new name; the pinned view still finds the old.
  auto head = db_.LookupByAttribute("part", "name", Value("rotor"));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->size(), 1u);
  // Epoch-pinned lookups are caller-locks reads (REQUIRES_SHARED).
  ReaderLock lock(db_.mutex());
  auto pinned =
      db_.LookupByAttributeAt("part", "name", Value("engine"), pin.view());
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->size(), 1u);
  EXPECT_EQ((*pinned)[0], *engine);
  auto pinned_new =
      db_.LookupByAttributeAt("part", "name", Value("rotor"), pin.view());
  ASSERT_TRUE(pinned_new.ok());
  EXPECT_TRUE(pinned_new->empty());
}

TEST_F(MvccTest, TransactionDeleteCascadesAndRollsBackLinks) {
  auto engine = db_.InsertAtom("part", {Value("engine")});
  auto piston = db_.InsertAtom("part", {Value("piston")});
  auto valve = db_.InsertAtom("part", {Value("valve")});
  ASSERT_TRUE(engine.ok() && piston.ok() && valve.ok());
  ASSERT_TRUE(db_.InsertLink("composition", *engine, *piston).ok());
  ASSERT_TRUE(db_.InsertLink("composition", *engine, *valve).ok());

  std::unique_ptr<Transaction> txn = db_.Begin();
  ASSERT_TRUE(db_.DeleteAtom("part", *engine, txn.get()).ok());
  // Inside the transaction the cascade is visible...
  EXPECT_TRUE(
      Compositions().PartnersAt(*engine, LinkDirection::kForward,
                                txn->view()).empty());
  ASSERT_TRUE(txn->Rollback().ok());
  // ...and rollback resurrects both the atom and its links.
  EXPECT_TRUE(Compositions().Contains(*engine, *piston));
  EXPECT_TRUE(Compositions().Contains(*engine, *valve));
  EXPECT_TRUE(db_.CheckConsistency().ok());
}

}  // namespace
}  // namespace mad
