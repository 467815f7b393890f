// Randomized reader/writer stress over the MVCC layer, designed to run
// clean under ThreadSanitizer (the CI `tsan` job runs it). Two writer
// threads commit transactions through the group-commit WAL while four
// reader threads pin epochs and derive molecules (flat and recursive BOM).
// Determinism contract (DESIGN.md §11): every derivation at a pinned epoch
// E is bit-identical to a fresh derivation over a scratch database
// materialized from the snapshot at E.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "molecule/derivation.h"
#include "molecule/description.h"
#include "molecule/recursive.h"
#include "storage/database.h"
#include "storage/durable_database.h"
#include "util/string_util.h"

namespace mad {
namespace {

namespace fs = std::filesystem;

constexpr int kWriters = 2;
constexpr int kTxnsPerWriter = 40;
constexpr int kReaders = 4;
constexpr int kReadsPerReader = 12;

Schema PartSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  return s;
}

/// Byte-exact fingerprint of a derivation result at `view`: molecule
/// structure in derivation order plus every member atom's values resolved
/// through the view (head when `view` is null, i.e. on a scratch database
/// materialized at the snapshot).
std::string Digest(const Database& db, const std::vector<Molecule>& molecules,
                   const ReadView* view) {
  auto part = db.GetAtomType("part");
  EXPECT_TRUE(part.ok());
  const AtomStore& store = (*part)->occurrence();
  std::string out;
  for (const Molecule& m : molecules) {
    out += "m" + std::to_string(m.root().value) + "{";
    for (size_t n = 0; n < m.node_count(); ++n) {
      out += "[";
      for (AtomId id : m.AtomsOf(n)) {
        const Atom* atom = view != nullptr && !store.HeadVisibleAt(*view)
                               ? store.FindVersionAt(id, *view)
                               : store.Find(id);
        EXPECT_NE(atom, nullptr) << "atom #" << id.value << " not at view";
        out += std::to_string(id.value) + "=" +
               (atom != nullptr ? atom->values[0].AsString() : "?") + ",";
      }
      out += "]";
    }
    for (const MoleculeLink& link : m.links()) {
      out += "<" + std::to_string(link.edge_index) + ":" +
             std::to_string(link.parent.value) + "-" +
             std::to_string(link.child.value) + ">";
    }
    out += "}";
  }
  return out;
}

/// A two-node reflexive description over the part graph: a root part and
/// its direct components through `composition`.
Result<MoleculeDescription> MakeDescription(const Database& db) {
  return MoleculeDescription::Create(
      db,
      {MoleculeNode{"part", "root", std::nullopt},
       MoleculeNode{"part", "component", std::nullopt}},
      {DirectedLink{"composition", "root", "component", false}});
}

std::string RecursiveDigest(const std::vector<RecursiveMolecule>& molecules) {
  std::string out;
  for (const RecursiveMolecule& m : molecules) {
    out += "r" + std::to_string(m.root().value) + "{";
    for (const std::vector<AtomId>& level : m.levels()) {
      out += "[";
      for (AtomId id : level) out += std::to_string(id.value) + ",";
      out += "]";
    }
    for (const Link& link : m.links()) {
      out += StrCat({"<", std::to_string(link.first.value), "-",
                     std::to_string(link.second.value), ">"});
    }
    out += "}";
  }
  return out;
}

class MvccStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "mvcc_stress";
    fs::remove_all(dir_);
    auto durable = DurableDatabase::Open(dir_, {});
    ASSERT_TRUE(durable.ok());
    durable_ = std::move(*durable);
    Database& db = durable_->database();

    ASSERT_TRUE(db.DefineAtomType("part", PartSchema()).ok());
    ASSERT_TRUE(db.DefineLinkType("composition", "part", "part").ok());

    // Seed a layered part graph: ids_[i] composed of a few higher-index
    // parts (acyclic by construction).
    std::mt19937 rng(20260809);
    for (int i = 0; i < 25; ++i) {
      auto id = db.InsertAtom("part", {Value("seed" + std::to_string(i))});
      ASSERT_TRUE(id.ok());
      ids_.push_back(*id);
    }
    for (size_t i = 0; i + 1 < ids_.size(); ++i) {
      std::uniform_int_distribution<size_t> pick(i + 1, ids_.size() - 1);
      for (int e = 0; e < 2; ++e) {
        (void)db.InsertLink("composition", ids_[i], ids_[pick(rng)]);
      }
    }

    auto md = MakeDescription(db);
    ASSERT_TRUE(md.ok()) << md.status();
    md_ = std::make_unique<MoleculeDescription>(std::move(*md));
  }

  void TearDown() override {
    durable_.reset();
    fs::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<DurableDatabase> durable_;
  std::vector<AtomId> ids_;
  std::unique_ptr<MoleculeDescription> md_;
};

TEST_F(MvccStressTest, ConcurrentWritersAndPinnedReadersStayDeterministic) {
  Database& db = durable_->database();
  db.StartBackgroundGc(std::chrono::milliseconds(1));

  std::atomic<uint64_t> conflicts{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> failed{false};

  auto writer = [&](int w) {
    std::mt19937 rng(1000 + w);
    std::vector<AtomId> mine;  // parts this writer inserted
    for (int i = 0; i < kTxnsPerWriter && !failed.load(); ++i) {
      auto txn = db.Begin();
      std::uniform_int_distribution<int> action(0, 3);
      bool aborted = false;
      for (int op = 0; op < 1 + action(rng) % 2 && !aborted; ++op) {
        switch (action(rng)) {
          case 0: {  // insert a part, link it under a seed part
            auto id = db.InsertAtom(
                "part",
                {Value("w" + std::to_string(w) + "_" + std::to_string(i))},
                txn.get());
            if (id.ok()) {
              mine.push_back(*id);
              std::uniform_int_distribution<size_t> pick(0, ids_.size() - 1);
              Status s = db.InsertLink("composition", ids_[pick(rng)], *id,
                                       txn.get());
              if (Database::IsWriteConflict(s)) aborted = true;
            } else if (Database::IsWriteConflict(id.status())) {
              aborted = true;
            }
            break;
          }
          case 1: {  // rename a seed part
            std::uniform_int_distribution<size_t> pick(0, ids_.size() - 1);
            Status s = db.UpdateAtom(
                "part", ids_[pick(rng)],
                {Value("u" + std::to_string(w) + "_" + std::to_string(i))},
                txn.get());
            if (Database::IsWriteConflict(s)) aborted = true;
            break;
          }
          case 2: {  // delete one of this writer's own parts
            if (mine.empty()) break;
            std::uniform_int_distribution<size_t> pick(0, mine.size() - 1);
            size_t victim = pick(rng);
            Status s = db.DeleteAtom("part", mine[victim], txn.get());
            if (s.ok()) {
              mine.erase(mine.begin() + static_cast<ptrdiff_t>(victim));
            } else if (Database::IsWriteConflict(s)) {
              aborted = true;
            }
            break;
          }
          default: {  // unlink a random seed edge (NotFound is fine)
            std::uniform_int_distribution<size_t> pick(0, ids_.size() - 1);
            Status s = db.EraseLink("composition", ids_[pick(rng)],
                                    ids_[pick(rng)], txn.get());
            if (Database::IsWriteConflict(s)) aborted = true;
            break;
          }
        }
      }
      if (aborted) {
        conflicts.fetch_add(1);
        if (!txn->Rollback().ok()) failed.store(true);
      } else {
        if (txn->Commit().ok()) {
          commits.fetch_add(1);
        } else {
          failed.store(true);
        }
      }
    }
  };

  auto reader = [&](int r) {
    for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
      ReaderLock lock(db.mutex());
      EpochPin pin = db.PinEpoch();
      const ReadView view = pin.view();

      // Flat derivation at the pin.
      DerivationOptions options;
      options.view = view;
      auto molecules = DeriveMolecules(db, *md_, options);
      if (!molecules.ok()) {
        ADD_FAILURE() << molecules.status();
        failed.store(true);
        return;
      }
      const std::string pinned_digest = Digest(db, *molecules, &view);

      // Recursive BOM at the same pin: stable across repeated derivation.
      RecursiveDescription rd;
      rd.atom_type = "part";
      rd.link_type = "composition";
      auto first = DeriveRecursiveMolecules(db, rd, view);
      auto second = DeriveRecursiveMolecules(db, rd, view);
      if (!first.ok() || !second.ok() ||
          RecursiveDigest(*first) != RecursiveDigest(*second)) {
        ADD_FAILURE() << "recursive derivation unstable at epoch "
                      << view.epoch;
        failed.store(true);
        return;
      }

      // Every few reads: materialize the snapshot into a scratch database
      // and compare a fresh derivation byte for byte.
      if (i % 4 == (r % 4)) {
        Database scratch("SCRATCH");
        ASSERT_TRUE(scratch.DefineAtomType("part", PartSchema()).ok());
        ASSERT_TRUE(
            scratch.DefineLinkType("composition", "part", "part").ok());
        auto part = db.GetAtomType("part");
        ASSERT_TRUE(part.ok());
        const AtomStore& store = (*part)->occurrence();
        auto comp = db.GetLinkType("composition");
        ASSERT_TRUE(comp.ok());
        const LinkStore& links = (*comp)->occurrence();
        for (const Atom* atom : store.SnapshotAt(view)) {
          ASSERT_TRUE(scratch
                          .InsertAtomWithId("part", atom->id, atom->values)
                          .ok());
        }
        for (const Atom* atom : store.SnapshotAt(view)) {
          for (AtomId child :
               links.PartnersAt(atom->id, LinkDirection::kForward, view)) {
            ASSERT_TRUE(
                scratch.InsertLink("composition", atom->id, child).ok());
          }
        }
        auto scratch_md = MakeDescription(scratch);
        ASSERT_TRUE(scratch_md.ok());
        auto materialized = DeriveMolecules(scratch, *scratch_md);
        ASSERT_TRUE(materialized.ok());
        if (Digest(scratch, *materialized, nullptr) !=
            pinned_digest) {
          ADD_FAILURE() << "pinned derivation at epoch " << view.epoch
                        << " differs from materialized derivation";
          failed.store(true);
          return;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (std::thread& t : threads) t.join();
  db.StopBackgroundGc();

  ASSERT_FALSE(failed.load());
  EXPECT_GT(commits.load(), 0u);
  EXPECT_TRUE(db.CheckConsistency().ok());

  // The WAL saw every commit: reopening replays to the identical head.
  auto final_md = MakeDescription(db);
  ASSERT_TRUE(final_md.ok());
  auto final_molecules = DeriveMolecules(db, *final_md);
  ASSERT_TRUE(final_molecules.ok());
  std::string final_digest = Digest(db, *final_molecules, nullptr);
  ASSERT_TRUE(durable_->Flush().ok());

  durable_.reset();
  auto again = DurableDatabase::Open(dir_, {});
  ASSERT_TRUE(again.ok());
  Database& db2 = (*again)->database();
  auto md2 = MakeDescription(db2);
  ASSERT_TRUE(md2.ok());
  auto molecules2 = DeriveMolecules(db2, *md2);
  ASSERT_TRUE(molecules2.ok());
  EXPECT_EQ(Digest(db2, *molecules2, nullptr), final_digest);
  EXPECT_TRUE(db2.CheckConsistency().ok());
}

}  // namespace
}  // namespace mad
