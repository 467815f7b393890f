// The compiled predicate runtime (expr/compile.h) against its oracle, the
// tree interpreter (MoleculeQualifier): same accepted predicates, same
// verdicts, same error codes and messages, same error timing — bit for bit,
// including over randomly generated predicates and degraded molecules.

#include "expr/compile.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "support/molecule_qualifier.h"
#include "workload/geo.h"

namespace mad {
namespace e = mad::expr;
namespace {

class CompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    auto md = MoleculeDescription::CreateFromTypes(
        db_, {"state", "area", "edge", "point"},
        {{"state-area", "state", "area", false},
         {"area-edge", "area", "edge", false},
         {"edge-point", "edge", "point", false}});
    ASSERT_TRUE(md.ok());
    md_ = std::make_unique<MoleculeDescription>(*std::move(md));
    auto molecules = DeriveMolecules(db_, *md_);
    ASSERT_TRUE(molecules.ok());
    molecules_ = *std::move(molecules);
    ASSERT_EQ(molecules_.size(), 10u);
  }

  /// All three engines — tree interpreter, scalar-compiled, batch-compiled
  /// — on one predicate over every molecule in `set`: identical acceptance,
  /// then identical verdict-or-error per molecule, bit for bit.
  void ExpectAgreement(const e::ExprPtr& predicate,
                       const std::vector<Molecule>& set) {
    auto interpreter = MoleculeQualifier::Create(db_, *md_, predicate);
    auto scalar = e::CompiledPredicate::Compile(
        db_, *md_, predicate, std::nullopt,
        e::CompiledPredicate::BatchMode::kScalar);
    auto batch = e::CompiledPredicate::Compile(db_, *md_, predicate);
    ASSERT_EQ(interpreter.ok(), scalar.ok())
        << (predicate == nullptr ? "<null>" : predicate->ToString())
        << "\n  interpreter: " << interpreter.status()
        << "\n  compiled:    " << scalar.status();
    ASSERT_EQ(interpreter.ok(), batch.ok())
        << (predicate == nullptr ? "<null>" : predicate->ToString())
        << "\n  interpreter: " << interpreter.status()
        << "\n  batch:       " << batch.status();
    if (!interpreter.ok()) {
      EXPECT_EQ(interpreter.status().code(), scalar.status().code());
      EXPECT_EQ(interpreter.status().message(), scalar.status().message());
      EXPECT_EQ(interpreter.status().code(), batch.status().code());
      EXPECT_EQ(interpreter.status().message(), batch.status().message());
      return;
    }
    if (scalar->batch_leaf_count() != 0) {
      ADD_FAILURE() << "BatchMode::kScalar must not plan batch leaves";
    }
    e::CompiledPredicate::Scratch scratch;
    e::CompiledPredicate::Scratch batch_scratch;
    for (size_t i = 0; i < set.size(); ++i) {
      Result<bool> expected = interpreter->Matches(set[i]);
      Result<bool> actual = scalar->EvalMolecule(set[i], scratch);
      Result<bool> vectorized = batch->EvalMolecule(set[i], batch_scratch);
      ASSERT_EQ(expected.ok(), actual.ok())
          << predicate->ToString() << " on molecule #" << i
          << "\n  interpreter: " << expected.status()
          << "\n  compiled:    " << actual.status();
      ASSERT_EQ(expected.ok(), vectorized.ok())
          << predicate->ToString() << " on molecule #" << i
          << "\n  interpreter: " << expected.status()
          << "\n  batch:       " << vectorized.status();
      if (expected.ok()) {
        EXPECT_EQ(*expected, *actual)
            << predicate->ToString() << " on molecule #" << i;
        EXPECT_EQ(*expected, *vectorized)
            << predicate->ToString() << " on molecule #" << i << " (batch)";
      } else {
        EXPECT_EQ(expected.status().code(), actual.status().code());
        EXPECT_EQ(expected.status().message(), actual.status().message());
        EXPECT_EQ(expected.status().code(), vectorized.status().code());
        EXPECT_EQ(expected.status().message(), vectorized.status().message());
      }
    }
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<MoleculeDescription> md_;
  std::vector<Molecule> molecules_;
};

TEST_F(CompileTest, SimpleComparisonsMatchInterpreter) {
  ExpectAgreement(e::Eq(e::Attr("point", "name"), e::Lit("pn")), molecules_);
  ExpectAgreement(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{900})),
                  molecules_);
  ExpectAgreement(e::Le(e::Attr("x"), e::Lit(3.0)), molecules_);
  ExpectAgreement(e::Ne(e::Attr("area", "name"), e::Attr("state", "name")),
                  molecules_);
}

TEST_F(CompileTest, ConnectivesAndConstantsMatchInterpreter) {
  ExpectAgreement(
      e::And(e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{0})),
             e::Or(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
                   e::Not(e::Eq(e::Attr("area", "name"), e::Lit("a7"))))),
      molecules_);
  ExpectAgreement(e::Lit(true), molecules_);
  ExpectAgreement(e::Not(e::Lit(false)), molecules_);
}

TEST_F(CompileTest, CountOpcodeMatchesInterpreter) {
  ExpectAgreement(e::Ge(e::Count("point"), e::Lit(int64_t{2})), molecules_);
  ExpectAgreement(e::Eq(e::Count("edge"), e::Count("point")), molecules_);
  ExpectAgreement(
      e::Gt(e::Add(e::Count("area"), e::Count("edge")), e::Lit(int64_t{4})),
      molecules_);
}

TEST_F(CompileTest, ForAllMatchesInterpreter) {
  ExpectAgreement(e::ForAll("point", e::Ge(e::Attr("point", "x"), e::Lit(0.0))),
                  molecules_);
  ExpectAgreement(
      e::ForAll("edge", e::Ne(e::Attr("edge", "name"), e::Lit("e12"))),
      molecules_);
  // Cross-node reference inside FORALL: the quantified label is universal,
  // the other existential per binding.
  ExpectAgreement(
      e::ForAll("point", e::Lt(e::Attr("point", "x"),
                               e::Add(e::Attr("state", "hectare"),
                                      e::Lit(int64_t{100000})))),
      molecules_);
}

TEST_F(CompileTest, ValuePositionConnectivesMatchInterpreter) {
  // AND/OR nested under a comparison short-circuit as values.
  ExpectAgreement(
      e::Eq(e::And(e::Gt(e::Attr("point", "x"), e::Lit(0.0)),
                   e::Lt(e::Attr("point", "y"), e::Lit(100.0))),
            e::Lit(true)),
      molecules_);
  ExpectAgreement(
      e::Ne(e::Or(e::Lit(false), e::Eq(e::Attr("edge", "name"), e::Lit("e1"))),
            e::Lit(false)),
      molecules_);
}

TEST_F(CompileTest, CompileRejectsExactlyWhatTheInterpreterRejects) {
  // Null, non-predicate root, unknown attribute, ambiguous attribute,
  // unknown COUNT/FORALL qualifier, nested FORALL — identical statuses.
  ExpectAgreement(nullptr, molecules_);
  ExpectAgreement(e::Add(e::Lit(int64_t{1}), e::Lit(int64_t{2})), molecules_);
  ExpectAgreement(e::Eq(e::Attr("bogus", "name"), e::Lit("x")), molecules_);
  ExpectAgreement(e::Eq(e::Attr("name"), e::Lit("x")), molecules_);
  ExpectAgreement(e::Ge(e::Count("bogus"), e::Lit(int64_t{0})), molecules_);
  ExpectAgreement(e::ForAll("bogus", e::Lit(true)), molecules_);
  ExpectAgreement(
      e::ForAll("edge", e::ForAll("edge", e::Lit(true))), molecules_);
}

TEST_F(CompileTest, RuntimeErrorsMatchInterpreter) {
  // Non-boolean predicate result.
  ExpectAgreement(e::And(e::Lit(true), e::Attr("state", "name")), molecules_);
  // FORALL in value position errors per binding combination.
  ExpectAgreement(
      e::Eq(e::ForAll("point", e::Ge(e::Attr("point", "x"), e::Lit(0.0))),
            e::Lit(true)),
      molecules_);
  // Type errors inside arithmetic.
  ExpectAgreement(
      e::Gt(e::Add(e::Attr("state", "name"), e::Lit(int64_t{1})),
            e::Lit(int64_t{0})),
      molecules_);
}

TEST_F(CompileTest, MissingAtomErrorHasInterpreterTiming) {
  // Deleting a shared point leaves dangling ids inside already-derived
  // molecules; both engines must surface the same Internal error when the
  // binding loop reaches the hole — not before.
  ASSERT_TRUE(db_.DeleteAtom("point", ids_.points["pn"]).ok());
  auto full_scan = e::Eq(e::Attr("point", "name"), e::Lit("no-such-point"));
  ExpectAgreement(full_scan, molecules_);
  auto interpreter = MoleculeQualifier::Create(db_, *md_, full_scan);
  auto compiled = e::CompiledPredicate::Compile(db_, *md_, full_scan);
  ASSERT_TRUE(interpreter.ok() && compiled.ok());
  e::CompiledPredicate::Scratch scratch;
  bool saw_missing = false;
  for (const Molecule& m : molecules_) {
    Result<bool> verdict = compiled->EvalMolecule(m, scratch);
    if (!verdict.ok()) {
      EXPECT_EQ(verdict.status().code(), StatusCode::kInternal);
      EXPECT_EQ(verdict.status().message(), "molecule atom missing from store");
      saw_missing = true;
    }
  }
  EXPECT_TRUE(saw_missing);
}

TEST_F(CompileTest, EvalResolvedSurvivesUnresolvedQualifiers) {
  // Regression: label_info_.at(...) used to throw std::out_of_range for
  // qualifiers that are not node labels; now a Status comes back.
  auto qualifier =
      MoleculeQualifier::Create(db_, *md_, e::Lit(true));
  ASSERT_TRUE(qualifier.ok());
  const Molecule& m = molecules_[0];
  auto count = qualifier->EvalResolved(
      *e::Ge(e::Count("bogus"), e::Lit(int64_t{0})), m);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count.status().message().find("unresolved qualifier 'bogus'"),
            std::string::npos);
  auto forall = qualifier->EvalResolved(
      *e::ForAll("bogus", e::Lit(true)), m);
  EXPECT_FALSE(forall.ok());
  auto existential = qualifier->EvalResolved(
      *e::Eq(e::Attr("bogus", "name"), e::Lit("x")), m);
  EXPECT_FALSE(existential.ok());
}

TEST_F(CompileTest, SummaryAndIntrospection) {
  auto compiled = e::CompiledPredicate::Compile(
      db_, *md_,
      e::And(e::Eq(e::Attr("point", "name"), e::Lit("pn")),
             e::Ge(e::Count("edge"), e::Lit(int64_t{1}))));
  ASSERT_TRUE(compiled.ok());
  EXPECT_GT(compiled->instruction_count(), 0u);
  EXPECT_EQ(compiled->literal_count(), 2u);
  EXPECT_EQ(compiled->node_count(), 4u);
  // Only the point comparison loops; COUNT reads a group size.
  EXPECT_EQ(compiled->loop_nodes(), (std::vector<size_t>{3}));
  EXPECT_NE(compiled->Summary().find("ops"), std::string::npos);
  EXPECT_NE(compiled->Summary().find("point"), std::string::npos);
}

TEST_F(CompileTest, BatchPlanningAndIntrospection) {
  // A single-loop attr-vs-literal leaf is batch-eligible; Summary says so.
  auto batch = e::CompiledPredicate::Compile(
      db_, *md_, e::Gt(e::Attr("point", "x"), e::Lit(1.0)));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->batch_leaf_count(), 1u);
  EXPECT_NE(batch->Summary().find("batch[1/1 leaves]"), std::string::npos);
  // kScalar turns planning off.
  auto scalar = e::CompiledPredicate::Compile(
      db_, *md_, e::Gt(e::Attr("point", "x"), e::Lit(1.0)), std::nullopt,
      e::CompiledPredicate::BatchMode::kScalar);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar->batch_leaf_count(), 0u);
  EXPECT_NE(scalar->Summary().find("scalar"), std::string::npos);
  // COUNT reads a group size, not a row — its leaf stays scalar.
  auto count = e::CompiledPredicate::Compile(
      db_, *md_, e::Ge(e::Count("point"), e::Lit(int64_t{2})));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->batch_leaf_count(), 0u);
  // Cross-node leaves loop over combinations, not single rows.
  auto cross = e::CompiledPredicate::Compile(
      db_, *md_, e::Ne(e::Attr("area", "name"), e::Attr("state", "name")));
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->batch_leaf_count(), 0u);
}

TEST_F(CompileTest, BatchKernelTypeAndNullEdges) {
  // Cross-type comparisons: numeric pairs compare, everything else errors
  // per binding — the kernels must reproduce both through the bitmaps.
  ExpectAgreement(e::Gt(e::Attr("state", "hectare"), e::Lit(999.5)),
                  molecules_);
  ExpectAgreement(e::Lt(e::Attr("point", "x"), e::Lit(int64_t{3})),
                  molecules_);
  ExpectAgreement(e::Eq(e::Attr("point", "name"), e::Lit(int64_t{7})),
                  molecules_);
  ExpectAgreement(e::Ne(e::Attr("state", "hectare"), e::Lit(true)),
                  molecules_);
  // Null literals never error: every non-null value compares greater.
  ExpectAgreement(e::Gt(e::Attr("point", "x"), e::Lit(Value::Null())),
                  molecules_);
  ExpectAgreement(e::Le(e::Lit(Value::Null()), e::Attr("edge", "name")),
                  molecules_);
  // Literal-on-the-left mirrors the operator inside the kernel.
  ExpectAgreement(e::Gt(e::Lit(2.0), e::Attr("point", "x")), molecules_);
  ExpectAgreement(e::Ge(e::Lit("e3"), e::Attr("edge", "name")), molecules_);
  // FORALL over a batched leaf.
  ExpectAgreement(e::ForAll("point", e::Lt(e::Attr("point", "x"), e::Lit(3.0))),
                  molecules_);
}

TEST_F(CompileTest, SigmaMatchesInterpreterInOrder) {
  // σ through the batch engine returns the same molecules in the same order
  // as the interpreter's derive-then-restrict.
  auto predicate = e::Or(e::Gt(e::Attr("point", "x"), e::Lit(2.5)),
                         e::Eq(e::Attr("state", "name"), e::Lit("SP")));
  auto interpreter = MoleculeQualifier::Create(db_, *md_, predicate);
  ASSERT_TRUE(interpreter.ok());
  std::vector<size_t> expected;
  for (size_t i = 0; i < molecules_.size(); ++i) {
    auto verdict = interpreter->Matches(molecules_[i]);
    ASSERT_TRUE(verdict.ok());
    if (*verdict) expected.push_back(i);
  }
  ASSERT_FALSE(expected.empty());
  MoleculeType mt("geo", *md_, molecules_);
  auto restricted = RestrictMolecules(db_, mt, predicate, "sel");
  ASSERT_TRUE(restricted.ok()) << restricted.status();
  ASSERT_EQ(restricted->molecules().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(restricted->molecules()[i].root(), molecules_[expected[i]].root())
        << "molecule " << i;
  }
}

// ---- Differential property test --------------------------------------------

/// Random expression generator over the geo description. Draws valid and
/// deliberately broken references so acceptance parity is exercised along
/// with verdict parity.
class RandomExpr {
 public:
  explicit RandomExpr(uint64_t seed) : rng_(seed) {}

  e::ExprPtr Predicate(int depth) {
    switch (rng_() % (depth > 0 ? 6 : 2)) {
      case 0:
      case 1: {  // comparison
        auto op = static_cast<int>(rng_() % 6);
        e::ExprPtr lhs = Operand(depth);
        e::ExprPtr rhs = Operand(depth);
        switch (op) {
          case 0: return e::Eq(lhs, rhs);
          case 1: return e::Ne(lhs, rhs);
          case 2: return e::Lt(lhs, rhs);
          case 3: return e::Le(lhs, rhs);
          case 4: return e::Gt(lhs, rhs);
          default: return e::Ge(lhs, rhs);
        }
      }
      case 2:
        return e::And(Predicate(depth - 1), Predicate(depth - 1));
      case 3:
        return e::Or(Predicate(depth - 1), Predicate(depth - 1));
      case 4:
        return e::Not(Predicate(depth - 1));
      default:
        return e::ForAll(Label(), Predicate(depth - 1));
    }
  }

 private:
  e::ExprPtr Operand(int depth) {
    switch (rng_() % (depth > 0 ? 8 : 6)) {
      case 0: return e::Lit(static_cast<int64_t>(rng_() % 5));
      case 1: return e::Lit(static_cast<double>(rng_() % 7) - 3.0);
      case 2: {
        const char* strings[] = {"pn", "SP", "a7", "e12", "zz"};
        return e::Lit(strings[rng_() % std::size(strings)]);
      }
      case 3: return e::Lit(rng_() % 2 == 0);
      case 4: {  // attribute reference, occasionally broken or ambiguous
        struct Ref { const char* qualifier; const char* attribute; };
        const Ref refs[] = {
            {"state", "name"}, {"state", "hectare"}, {"area", "name"},
            {"area", "hectare"}, {"edge", "name"},   {"point", "name"},
            {"point", "x"},     {"point", "y"},      {"", "x"},
            {"", "y"},          {"", "hectare"},     {"", "name"},
            {"bogus", "name"},
        };
        const Ref& ref = refs[rng_() % std::size(refs)];
        return *ref.qualifier == '\0' ? e::Attr(ref.attribute)
                                      : e::Attr(ref.qualifier, ref.attribute);
      }
      case 5: return e::Count(Label());
      default: {  // arithmetic
        e::ExprPtr lhs = Operand(depth - 1);
        e::ExprPtr rhs = Operand(depth - 1);
        switch (rng_() % 4) {
          case 0: return e::Add(lhs, rhs);
          case 1: return e::Sub(lhs, rhs);
          case 2: return e::Mul(lhs, rhs);
          default: return e::Div(lhs, rhs);
        }
      }
    }
  }

  std::string Label() {
    const char* labels[] = {"state", "area", "edge", "point", "bogus"};
    return labels[rng_() % std::size(labels)];
  }

  std::mt19937_64 rng_;
};

TEST_F(CompileTest, DifferentialRandomPredicatesAndMolecules) {
  // Degraded variants: random subsets per group (empty groups included)
  // exercise vacuous FORALL, failed existentials, and COUNT edge cases.
  std::mt19937_64 rng(20260806);
  std::vector<Molecule> set = molecules_;
  for (const Molecule& m : molecules_) {
    Molecule variant(m.root(), m.node_count());
    for (size_t n = 0; n < m.node_count(); ++n) {
      for (AtomId id : m.AtomsOf(n)) {
        if (rng() % 3 != 0) variant.AddAtom(n, id);
      }
    }
    set.push_back(std::move(variant));
  }

  RandomExpr gen(424242);
  size_t accepted = 0;
  for (int round = 0; round < 300; ++round) {
    e::ExprPtr predicate = gen.Predicate(3);
    ExpectAgreement(predicate, set);
    if (e::CompiledPredicate::Compile(db_, *md_, predicate).ok()) ++accepted;
    if (HasFatalFailure()) {
      ADD_FAILURE() << "diverged on: " << predicate->ToString();
      return;
    }
  }
  // The generator must produce plenty of valid predicates for the parity
  // check to mean anything.
  EXPECT_GT(accepted, 100u);
}

}  // namespace
}  // namespace mad
