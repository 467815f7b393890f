// Failure-injection / fuzz suite: random mutation sequences against the
// Figure-1 schema must never break the database invariants (no dangling
// links, schema-valid atoms, index agreement), and molecule derivation over
// the mutated network must keep producing valid molecules.

#include <gtest/gtest.h>

#include <random>

#include "molecule/derivation.h"
#include "support/molecule_validator.h"
#include "util/string_util.h"
#include "workload/geo.h"

namespace mad {
namespace {

class IntegrityFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("FUZZ");
    workload::GeoScale scale;
    scale.states = 15;
    scale.rivers = 4;
    scale.seed = GetParam();
    auto stats = workload::GenerateScaledGeo(*db_, scale);
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(db_->CreateIndex("state", "hectare").ok());
    ASSERT_TRUE(db_->CreateIndex("point", "name").ok());
    rng_.seed(GetParam() * 7919 + 13);
  }

  AtomId RandomAtomOf(const std::string& aname) {
    auto at = db_->GetAtomType(aname);
    if (!at.ok() || (*at)->occurrence().empty()) return AtomId::Invalid();
    const auto& atoms = (*at)->occurrence().atoms();
    return atoms[rng_() % atoms.size()].id;
  }

  std::unique_ptr<Database> db_;
  std::mt19937_64 rng_;
};

TEST_P(IntegrityFuzzTest, RandomMutationsPreserveInvariants) {
  const std::string atom_types[] = {"state", "area", "edge", "point"};
  const struct {
    const char* lname;
    const char* first;
    const char* second;
  } link_types[] = {{"state-area", "state", "area"},
                    {"area-edge", "area", "edge"},
                    {"edge-point", "edge", "point"}};

  for (int step = 0; step < 400; ++step) {
    int action = static_cast<int>(rng_() % 6);
    switch (action) {
      case 0: {  // insert atom
        const std::string& aname = atom_types[rng_() % 4];
        const AtomType* at = *db_->GetAtomType(aname);
        std::vector<Value> values;
        for (const AttributeDescription& attr :
             at->description().attributes()) {
          switch (attr.type) {
            case DataType::kString:
              values.emplace_back(StrCat({"f", std::to_string(rng_() % 1000)}));
              break;
            case DataType::kInt64:
              values.emplace_back(static_cast<int64_t>(rng_() % 2000));
              break;
            case DataType::kDouble:
              values.emplace_back(static_cast<double>(rng_() % 1000));
              break;
            default:
              values.emplace_back(true);
          }
        }
        ASSERT_TRUE(db_->InsertAtom(aname, std::move(values)).ok());
        break;
      }
      case 1: {  // insert link (may legitimately collide)
        const auto& lt = link_types[rng_() % 3];
        AtomId first = RandomAtomOf(lt.first);
        AtomId second = RandomAtomOf(lt.second);
        if (!first.valid() || !second.valid()) break;
        Status s = db_->InsertLink(lt.lname, first, second);
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAlreadyExists) << s;
        break;
      }
      case 2: {  // delete atom (cascades links)
        const std::string& aname = atom_types[rng_() % 4];
        AtomId id = RandomAtomOf(aname);
        if (!id.valid()) break;
        ASSERT_TRUE(db_->DeleteAtom(aname, id).ok());
        break;
      }
      case 3: {  // update atom in place
        AtomId id = RandomAtomOf("state");
        if (!id.valid()) break;
        ASSERT_TRUE(db_->UpdateAtom("state", id,
                                    {Value(StrCat({"u", std::to_string(step)})),
                                     Value(static_cast<int64_t>(rng_() % 2000))})
                        .ok());
        break;
      }
      case 4: {  // erase a random existing link
        const auto& lt_desc = link_types[rng_() % 3];
        const LinkType* lt = *db_->GetLinkType(lt_desc.lname);
        if (lt->occurrence().empty()) break;
        const Link& link =
            lt->occurrence().links()[rng_() % lt->occurrence().size()];
        ASSERT_TRUE(db_->EraseLink(lt_desc.lname, link.first, link.second).ok());
        break;
      }
      case 5: {  // toggle an index
        if (db_->FindIndex("area", "name") == nullptr) {
          ASSERT_TRUE(db_->CreateIndex("area", "name").ok());
        } else {
          ASSERT_TRUE(db_->DropIndex("area", "name").ok());
        }
        break;
      }
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(db_->CheckConsistency().ok()) << "after step " << step;
    }
  }
  ASSERT_TRUE(db_->CheckConsistency().ok());

  // Derivation over the mutated network still yields valid molecules.
  auto md = MoleculeDescription::CreateFromTypes(
      *db_, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok());
  auto mv = DeriveMolecules(*db_, *md);
  ASSERT_TRUE(mv.ok());
  EXPECT_EQ(mv->size(), (*db_->GetAtomType("state"))->occurrence().size());
  for (const Molecule& m : *mv) {
    ASSERT_TRUE(ValidateMolecule(*db_, *md, m).ok());
  }
}

TEST_P(IntegrityFuzzTest, DeletionStormLeavesNoDanglingLinks) {
  // Delete every edge atom: all three n:m link types must drain.
  std::vector<AtomId> edges;
  for (const Atom& atom : (*db_->GetAtomType("edge"))->occurrence().atoms()) {
    edges.push_back(atom.id);
  }
  std::shuffle(edges.begin(), edges.end(), rng_);
  for (AtomId id : edges) {
    ASSERT_TRUE(db_->DeleteAtom("edge", id).ok());
  }
  EXPECT_EQ((*db_->GetLinkType("area-edge"))->occurrence().size(), 0u);
  EXPECT_EQ((*db_->GetLinkType("net-edge"))->occurrence().size(), 0u);
  EXPECT_EQ((*db_->GetLinkType("edge-point"))->occurrence().size(), 0u);
  EXPECT_TRUE(db_->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrityFuzzTest,
                         ::testing::Values(1, 2, 3, 11, 12345));

TEST(IntegrityAuditTest, CheckConsistencyCatchesRegressedIdCounter) {
  Database db("AUDIT");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(db.DefineAtomType("part", s).ok());
  auto a = db.InsertAtom("part", {Value("a")});
  auto b = db.InsertAtom("part", {Value("b")});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(db.CheckConsistency().ok());

  // A counter behind a live atom id would hand out colliding "fresh" ids
  // after crash recovery. CheckConsistency must refuse it.
  db.TestOnlySetLastAtomId(a->value);
  Status status = db.CheckConsistency();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exceeds last_atom_id"), std::string::npos)
      << status;

  db.TestOnlySetLastAtomId(b->value);
  EXPECT_TRUE(db.CheckConsistency().ok());
}

TEST(IntegrityAuditTest, CheckConsistencyCoversVersionStamps) {
  // A mutation history with archived versions, an open pin, and a pending
  // transaction must still audit clean: version-interval sanity skips
  // pending stamps and tolerates the archive.
  Database db("AUDIT_V");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(db.DefineAtomType("part", s).ok());
  auto a = db.InsertAtom("part", {Value("a")});
  ASSERT_TRUE(a.ok());

  EpochPin pin;
  {
    ReaderLock lock(db.mutex());
    pin = db.PinEpoch();
  }
  ASSERT_TRUE(db.UpdateAtom("part", *a, {Value("a2")}).ok());
  auto txn = db.Begin();
  ASSERT_TRUE(db.InsertAtom("part", {Value("pending")}, txn.get()).ok());

  EXPECT_TRUE(db.CheckConsistency().ok());
  ASSERT_TRUE(txn->Rollback().ok());
  pin.Release();
  EXPECT_GE(db.ReclaimVersions(), 1u);
  EXPECT_TRUE(db.CheckConsistency().ok());
}

}  // namespace
}  // namespace mad
