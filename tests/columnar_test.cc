// The column-major mirror of AtomStore heads (storage/column.h): bitmap
// shifting mechanics, self-typing and degradation edges, the head/column
// invariant across every mutation path, and the interaction with MVCC
// snapshots and the batch predicate planner.

#include "storage/column.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "expr/compile.h"
#include "expr/kernels.h"
#include "molecule/derivation.h"
#include "storage/atom_store.h"
#include "storage/database.h"
#include "util/string_util.h"
#include "workload/geo.h"

namespace mad {
namespace {

Atom MakeAtom(uint64_t id, std::vector<Value> values) {
  return Atom{AtomId{id}, std::move(values)};
}

// ---- bitmap shifting --------------------------------------------------------

TEST(BitmapTest, AppendCrossesWordBoundaries) {
  std::vector<uint64_t> words;
  std::vector<bool> ref;
  std::mt19937_64 rng(1);
  for (size_t i = 0; i < 200; ++i) {
    bool v = rng() % 2 == 0;
    bitmap::Append(words, i, v);
    ref.push_back(v);
  }
  ASSERT_EQ(words.size(), (ref.size() + 63) / 64);
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(bitmap::Get(words, i), ref[i]) << "bit " << i;
  }
}

TEST(BitmapTest, InsertAndEraseShiftTailsLikeAVector) {
  // Differential against std::vector<bool> across word boundaries: random
  // insert/erase positions including 0, 63, 64, and the end.
  std::vector<uint64_t> words;
  std::vector<bool> ref;
  std::mt19937_64 rng(2);
  for (int step = 0; step < 600; ++step) {
    const size_t n = ref.size();
    if (n == 0 || rng() % 3 != 0) {
      size_t at = n == 0 ? 0 : rng() % (n + 1);
      bool v = rng() % 2 == 0;
      bitmap::Insert(words, n, at, v);
      ref.insert(ref.begin() + static_cast<ptrdiff_t>(at), v);
    } else {
      size_t at = rng() % n;
      bitmap::Erase(words, n, at);
      ref.erase(ref.begin() + static_cast<ptrdiff_t>(at));
    }
    ASSERT_EQ(words.size(), (ref.size() + 63) / 64);
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(bitmap::Get(words, i), ref[i])
          << "step " << step << " bit " << i;
    }
  }
}

// ---- self-typing and degradation -------------------------------------------

TEST(ColumnSetTest, AllNullColumnStaysUntypedAndAudits) {
  AtomStore store;
  for (uint64_t id = 1; id <= 70; ++id) {  // crosses a bitmap word boundary
    ASSERT_TRUE(store.Insert(MakeAtom(id, {Value::Null()})).ok());
  }
  const ColumnSet& cs = store.columns();
  ASSERT_TRUE(cs.regular());
  const Column* col = cs.column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->type(), DataType::kNull);
  EXPECT_FALSE(col->mixed());
  for (size_t r = 0; r < 70; ++r) {
    EXPECT_TRUE(col->IsNull(r));
    EXPECT_TRUE(col->ValueAt(r).is_null());
  }
  EXPECT_TRUE(cs.AuditAgainstRows(store.atoms()).ok());

  // Kernels over an all-null column: every row takes the constant
  // null-verdict, never an error.
  expr::RowBitmaps bits;
  ASSERT_TRUE(expr::BuildCompareBitmaps(*col, 70, expr::CompareOp::kLt,
                                        Value(int64_t{5}), true, &bits));
  EXPECT_FALSE(bits.any_err);
  for (size_t r = 0; r < 70; ++r) {
    EXPECT_TRUE(bits.Pass(r)) << r;  // null < 5
    EXPECT_FALSE(bits.Err(r)) << r;
  }
}

TEST(ColumnSetTest, LateTypingBackfillsNullPlaceholders) {
  AtomStore store;
  ASSERT_TRUE(store.Insert(MakeAtom(1, {Value::Null()})).ok());
  ASSERT_TRUE(store.Insert(MakeAtom(2, {Value::Null()})).ok());
  ASSERT_TRUE(store.Insert(MakeAtom(3, {Value(int64_t{9})})).ok());
  const Column* col = store.columns().column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->type(), DataType::kInt64);
  EXPECT_TRUE(col->IsNull(0));
  EXPECT_TRUE(col->IsNull(1));
  EXPECT_EQ(col->ValueAt(2).AsInt64(), 9);
  EXPECT_TRUE(store.columns().AuditAgainstRows(store.atoms()).ok());
}

TEST(ColumnSetTest, HeterogeneousValuesDegradeToMixed) {
  AtomStore store;
  ASSERT_TRUE(store.Insert(MakeAtom(1, {Value(int64_t{1})})).ok());
  ASSERT_TRUE(store.Insert(MakeAtom(2, {Value("not an int")})).ok());
  const Column* col = store.columns().column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_TRUE(col->mixed());
  // Kernels refuse mixed columns; the head stays authoritative.
  expr::RowBitmaps bits;
  EXPECT_FALSE(expr::BuildCompareBitmaps(*col, 2, expr::CompareOp::kEq,
                                         Value(int64_t{1}), true, &bits));
  // The audit still passes (typed data is dropped by design) and the id
  // column keeps mirroring the head.
  EXPECT_TRUE(store.columns().AuditAgainstRows(store.atoms()).ok());
  EXPECT_EQ(store.columns().IdAt(1).value, 2u);
}

TEST(ColumnSetTest, ArityAnomalyMarksIrregularAndRecoversWhenEmpty) {
  AtomStore store;
  ASSERT_TRUE(store.Insert(MakeAtom(1, {Value(int64_t{1})})).ok());
  ASSERT_TRUE(
      store.Insert(MakeAtom(2, {Value(int64_t{2}), Value("extra")})).ok());
  EXPECT_FALSE(store.columns().regular());
  EXPECT_EQ(store.columns().column(0), nullptr);
  EXPECT_TRUE(store.columns().AuditAgainstRows(store.atoms()).ok());
  // Ids stay maintained even while irregular.
  EXPECT_EQ(store.columns().IdAt(0).value, 1u);
  EXPECT_EQ(store.columns().IdAt(1).value, 2u);
  // Empty the store: the set resets and re-fixes its arity on the next row.
  ASSERT_TRUE(store.Erase(AtomId{1}).ok());
  ASSERT_TRUE(store.Erase(AtomId{2}).ok());
  EXPECT_EQ(store.columns().rows(), 0u);
  ASSERT_TRUE(store.Insert(MakeAtom(3, {Value(3.5)})).ok());
  EXPECT_TRUE(store.columns().regular());
  const Column* col = store.columns().column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->type(), DataType::kDouble);
  EXPECT_EQ(col->ValueAt(0).AsDouble(), 3.5);
}

TEST(ColumnSetTest, EmptyingTheStoreResetsColumnTypes) {
  // Zero live atoms after deletes: the typed arrays clear, and a different
  // value type may re-seed the column afterwards.
  AtomStore store;
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(
        store.Insert(MakeAtom(id, {Value(static_cast<int64_t>(id))})).ok());
  }
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(store.Erase(AtomId{id}).ok());
  }
  EXPECT_EQ(store.columns().rows(), 0u);
  EXPECT_TRUE(store.columns().AuditAgainstRows(store.atoms()).ok());
  ASSERT_TRUE(store.Insert(MakeAtom(9, {Value("now a string")})).ok());
  const Column* col = store.columns().column(0);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->type(), DataType::kString);
  EXPECT_EQ(col->ValueAt(0).AsString(), "now a string");
  EXPECT_TRUE(store.columns().AuditAgainstRows(store.atoms()).ok());
}

// ---- order-preserving erase and PositionOf ---------------------------------

TEST(ColumnSetTest, PositionOfTracksDenseRowsAcrossErases) {
  AtomStore store;
  for (uint64_t id = 1; id <= 100; ++id) {
    ASSERT_TRUE(
        store.Insert(MakeAtom(id, {Value(static_cast<int64_t>(id * 10))}))
            .ok());
  }
  // Erase from the front, middle, and back; the shifting erase preserves
  // the order of the survivors, and PositionOf must keep matching both the
  // head row and the column row for every live id.
  std::mt19937_64 rng(77);
  std::vector<uint64_t> live;
  for (uint64_t id = 1; id <= 100; ++id) live.push_back(id);
  while (live.size() > 40) {
    size_t pick = rng() % live.size();
    ASSERT_TRUE(store.Erase(AtomId{live[pick]}).ok());
    live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    ASSERT_TRUE(store.columns().AuditAgainstRows(store.atoms()).ok());
  }
  const ColumnSet& cs = store.columns();
  ASSERT_EQ(cs.rows(), live.size());
  for (size_t r = 0; r < live.size(); ++r) {
    const AtomId id{live[r]};
    auto pos = store.PositionOf(id);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(*pos, r);
    EXPECT_EQ(cs.IdAt(r), id);
    EXPECT_EQ(cs.ValueAt(0, r).AsInt64(),
              static_cast<int64_t>(live[r] * 10));
  }
}

// ---- MVCC interaction -------------------------------------------------------

class ColumnarMvccTest : public ::testing::Test {
 protected:
  EpochPin Pin() {
    ReaderLock lock(db_.mutex());
    return db_.PinEpoch();
  }

  const AtomStore& Parts() {
    auto at = db_.GetAtomType("part");
    EXPECT_TRUE(at.ok());
    return (*at)->occurrence();
  }

  void SetUp() override {
    Schema s;
    ASSERT_TRUE(s.AddAttribute("name", DataType::kString).ok());
    ASSERT_TRUE(s.AddAttribute("weight", DataType::kInt64).ok());
    ASSERT_TRUE(db_.DefineAtomType("part", s).ok());
  }

  Database db_{"COLMVCC_DB"};
};

TEST_F(ColumnarMvccTest, SnapshotReadsSurviveColumnChurn) {
  auto engine = db_.InsertAtom("part", {Value("engine"), Value(int64_t{40})});
  auto piston = db_.InsertAtom("part", {Value("piston"), Value(int64_t{2})});
  ASSERT_TRUE(engine.ok() && piston.ok());

  EpochPin pin = Pin();
  const ReadView view = pin.view();

  // Churn the head — and with it the columns — past the pin: update,
  // delete, insert. Every mutation rewrites column rows.
  ASSERT_TRUE(
      db_.UpdateAtom("part", *piston, {Value("piston-v2"), Value(int64_t{3})})
          .ok());
  ASSERT_TRUE(db_.DeleteAtom("part", *engine).ok());
  auto valve = db_.InsertAtom("part", {Value("valve"), Value(int64_t{1})});
  ASSERT_TRUE(valve.ok());

  // The columns mirror the *new* head exactly...
  ASSERT_TRUE(db_.CheckConsistency().ok());
  const ColumnSet& cs = Parts().columns();
  ASSERT_EQ(cs.rows(), 2u);
  EXPECT_EQ(cs.ValueAt(0, 0).AsString(), "piston-v2");
  EXPECT_EQ(cs.ValueAt(0, 1).AsString(), "valve");

  // ...while the pinned snapshot still reads the archived versions.
  EXPECT_FALSE(Parts().HeadVisibleAt(view));
  std::vector<const Atom*> atoms = Parts().SnapshotAt(view);
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0]->values[0].AsString(), "engine");
  EXPECT_EQ(atoms[1]->values[0].AsString(), "piston");
}

TEST_F(ColumnarMvccTest, PinnedViewsCompileScalarHeadViewsCompileBatch) {
  ASSERT_TRUE(
      db_.InsertAtom("part", {Value("engine"), Value(int64_t{40})}).ok());
  auto md = MoleculeDescription::CreateFromTypes(db_, {"part"}, {});
  ASSERT_TRUE(md.ok());
  auto predicate = expr::Gt(expr::Attr("part", "weight"), expr::Lit(int64_t{5}));

  EpochPin pin = Pin();
  const ReadView view = pin.view();
  // Mutate so the pinned view diverges from the head.
  ASSERT_TRUE(
      db_.InsertAtom("part", {Value("valve"), Value(int64_t{1})}).ok());
  ASSERT_FALSE(Parts().HeadVisibleAt(view));

  // Head compile: batch-eligible. Pinned compile: the store's head is not
  // the snapshot, so the planner must leave the leaf scalar — and both
  // engines must agree with the interpreter on the snapshot rows.
  auto head = expr::CompiledPredicate::Compile(db_, *md, predicate);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->batch_leaf_count(), 1u);
  auto pinned = expr::CompiledPredicate::Compile(db_, *md, predicate, view);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->batch_leaf_count(), 0u);

  std::vector<const Atom*> rows = Parts().SnapshotAt(view);
  ASSERT_EQ(rows.size(), 1u);
  expr::CompiledPredicate::AtomSpan span{rows.data(), rows.size()};
  expr::CompiledPredicate::Scratch scratch;
  auto verdict = pinned->Eval(&span, scratch);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);  // engine weighs 40 > 5 at the pinned epoch
}

// ---- whole-database churn audit --------------------------------------------

TEST(ColumnarChurnTest, GeoWorkloadStaysBitIdenticalUnderChurn) {
  Database db("GEO_COL_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  ASSERT_TRUE(db.CheckConsistency().ok());

  // Random update/delete/insert churn over the point store, auditing the
  // invariant after every step via CheckConsistency.
  auto points = db.GetAtomType("point");
  ASSERT_TRUE(points.ok());
  std::mt19937_64 rng(2026);
  for (int step = 0; step < 60; ++step) {
    const auto& atoms = (*points)->occurrence().atoms();
    if (!atoms.empty() && rng() % 3 == 0) {
      const Atom& victim = atoms[rng() % atoms.size()];
      ASSERT_TRUE(db.DeleteAtom("point", victim.id).ok());
    } else if (!atoms.empty() && rng() % 2 == 0) {
      const Atom& victim = atoms[rng() % atoms.size()];
      std::vector<Value> next = victim.values;
      next[1] = Value(static_cast<double>(rng() % 1000));
      ASSERT_TRUE(db.UpdateAtom("point", victim.id, next).ok());
    } else {
      ASSERT_TRUE(db.InsertAtom("point",
                                {Value(StrCat({"p", std::to_string(1000 + step)})),
                                 Value(static_cast<double>(step)),
                                 Value(static_cast<double>(step))})
                      .ok());
    }
    ASSERT_TRUE(db.CheckConsistency().ok()) << "step " << step;
  }
}

}  // namespace
}  // namespace mad
