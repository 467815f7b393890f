#include "molecule/recursive.h"

#include <gtest/gtest.h>

#include <set>

#include "util/metrics.h"
#include "util/trace.h"
#include "workload/bom.h"

namespace mad {
namespace {

class RecursiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildCarBom(db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
  }

  RecursiveDescription Explosion(int max_depth = -1) {
    return RecursiveDescription{"part", "composition",
                                LinkDirection::kForward, max_depth};
  }
  RecursiveDescription Implosion(int max_depth = -1) {
    return RecursiveDescription{"part", "composition",
                                LinkDirection::kBackward, max_depth};
  }

  Database db_{"BOM"};
  std::map<std::string, AtomId> ids_;
};

TEST_F(RecursiveTest, ValidationRejectsNonReflexiveLinkTypes) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(db_.DefineAtomType("supplier", std::move(s)).ok());
  ASSERT_TRUE(db_.DefineLinkType("supplies", "supplier", "part").ok());

  RecursiveDescription bad{"part", "supplies", LinkDirection::kForward, -1};
  EXPECT_EQ(ValidateRecursiveDescription(db_, bad).code(),
            StatusCode::kInvalidArgument);
  RecursiveDescription unknown{"part", "bogus", LinkDirection::kForward, -1};
  EXPECT_EQ(ValidateRecursiveDescription(db_, unknown).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(ValidateRecursiveDescription(db_, Explosion()).ok());
}

TEST_F(RecursiveTest, PartsExplosionOfCar) {
  auto m = DeriveRecursiveMoleculeFor(db_, Explosion(), ids_["car"]);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->root(), ids_["car"]);
  EXPECT_EQ(m->atom_count(), 5u);  // the whole car, bolt counted once
  // bolt is reached at depth 2 via chassis (shortest path wins), so the
  // explosion stratifies into 3 levels even though car->engine->piston->
  // bolt is a length-3 chain.
  EXPECT_EQ(m->depth(), 2u);
  ASSERT_EQ(m->levels().size(), 3u);
  std::set<AtomId> level2(m->levels()[2].begin(), m->levels()[2].end());
  EXPECT_TRUE(level2.count(ids_["bolt"]) > 0);
  // Both composition links into bolt are realised.
  size_t bolt_in = 0;
  for (const Link& link : m->links()) {
    if (link.second == ids_["bolt"]) ++bolt_in;
  }
  EXPECT_EQ(bolt_in, 2u);
}

TEST_F(RecursiveTest, DepthBoundedExplosion) {
  auto m = DeriveRecursiveMoleculeFor(db_, Explosion(1), ids_["car"]);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->atom_count(), 3u);  // car, engine, chassis
  EXPECT_EQ(m->depth(), 1u);

  auto m2 = DeriveRecursiveMoleculeFor(db_, Explosion(2), ids_["car"]);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->atom_count(), 5u);  // piston and bolt both arrive at depth 2
}

TEST_F(RecursiveTest, RoundsCounterCountsTheRoundsThatRan) {
  // The car explodes in 3 rounds (the third finds no new part): a bound of
  // 1 or 2 stops the closure after 1 or 2, and *3 runs all 3.
  const Counter& rounds = Registry::Global().GetCounter("closure.rounds");
  for (int max_depth : {-1, 1, 2, 3}) {
    QueryTrace trace;
    const uint64_t before = rounds.value();
    {
      TraceScope scope(&trace);
      ASSERT_TRUE(
          DeriveRecursiveMoleculeFor(db_, Explosion(max_depth), ids_["car"])
              .ok());
    }
    uint64_t round_spans = 0;
    for (const TraceSpan& span : trace.spans()) {
      if (span.name == "closure-round") ++round_spans;
    }
    EXPECT_EQ(rounds.value() - before, round_spans)
        << "max_depth " << max_depth;
    EXPECT_EQ(round_spans, max_depth == 1 ? 1u : max_depth == 2 ? 2u : 3u)
        << "max_depth " << max_depth;
  }
}

TEST_F(RecursiveTest, PartsImplosionUsesLinkSymmetry) {
  // Where-used view of bolt: piston, chassis, then engine, car — the
  // super-component view through the same links, traversed backward.
  auto m = DeriveRecursiveMoleculeFor(db_, Implosion(), ids_["bolt"]);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->atom_count(), 5u);
  EXPECT_TRUE(m->Contains(ids_["car"]));
  // bolt <- {piston, chassis} <- {engine, car}: 3 levels.
  ASSERT_EQ(m->levels().size(), 3u);
  std::set<AtomId> level1(m->levels()[1].begin(), m->levels()[1].end());
  EXPECT_EQ(level1, (std::set<AtomId>{ids_["piston"], ids_["chassis"]}));
}

TEST_F(RecursiveTest, LeafPartHasTrivialExplosion) {
  auto m = DeriveRecursiveMoleculeFor(db_, Explosion(), ids_["bolt"]);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->atom_count(), 1u);
  EXPECT_EQ(m->depth(), 0u);
  EXPECT_TRUE(m->links().empty());
}

TEST_F(RecursiveTest, DeriveAllRoots) {
  auto all = DeriveRecursiveMolecules(db_, Explosion());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);  // one per part
  size_t total_atoms = 0;
  for (const RecursiveMolecule& m : *all) total_atoms += m.atom_count();
  // car(5) + engine(3) + chassis(2) + piston(2) + bolt(1).
  EXPECT_EQ(total_atoms, 13u);
}

TEST_F(RecursiveTest, CyclicInstanceDataTerminates) {
  // A maintenance kit that contains a bolt which (erroneously or by
  // design) contains the kit again: the traversal must terminate.
  auto kit = db_.InsertAtom("part", {Value("kit"), Value(int64_t{10})});
  ASSERT_TRUE(kit.ok());
  ASSERT_TRUE(db_.InsertLink("composition", *kit, ids_["bolt"]).ok());
  ASSERT_TRUE(db_.InsertLink("composition", ids_["bolt"], *kit).ok());

  auto m = DeriveRecursiveMoleculeFor(db_, Explosion(), *kit);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->atom_count(), 2u);  // kit, bolt
  // The back link bolt->kit is realised but does not re-expand kit.
  bool back_link = false;
  for (const Link& link : m->links()) {
    if (link.first == ids_["bolt"] && link.second == *kit) back_link = true;
  }
  EXPECT_TRUE(back_link);
}

TEST_F(RecursiveTest, UnknownRootRejected) {
  EXPECT_EQ(
      DeriveRecursiveMoleculeFor(db_, Explosion(), AtomId{9999}).status().code(),
      StatusCode::kNotFound);
}

TEST_F(RecursiveTest, PropagateClosureLinks) {
  auto inserted = PropagateClosureLinks(db_, Explosion(), "contains_transitively");
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  // car: 4, engine: 2, chassis: 1, piston: 1, bolt: 0.
  EXPECT_EQ(*inserted, 8u);
  auto lt = db_.GetLinkType("contains_transitively");
  ASSERT_TRUE(lt.ok());
  EXPECT_TRUE((*lt)->occurrence().Contains(ids_["car"], ids_["bolt"]));
  EXPECT_FALSE((*lt)->occurrence().Contains(ids_["bolt"], ids_["car"]));
  // The closure link type is itself a schema object: usable in queries.
  EXPECT_TRUE((*lt)->reflexive());
}

class BomGeneratorTest : public ::testing::TestWithParam<int> {};

TEST_P(BomGeneratorTest, GeneratedBomExplodesToExpectedDepth) {
  Database db("BOM");
  workload::BomScale scale;
  scale.depth = GetParam();
  scale.fanout = 2;
  scale.share_fraction = 0.25;
  auto stats = workload::GenerateBom(db, scale);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->roots.size(), 1u);
  EXPECT_GT(stats->parts, static_cast<size_t>(scale.depth));

  RecursiveDescription rd{"part", "composition", LinkDirection::kForward, -1};
  auto m = DeriveRecursiveMoleculeFor(db, rd, stats->roots[0]);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->depth(), static_cast<size_t>(scale.depth));
  EXPECT_EQ(m->atom_count(), stats->parts);  // single root reaches all parts
}

INSTANTIATE_TEST_SUITE_P(Depths, BomGeneratorTest,
                         ::testing::Values(1, 2, 4, 6, 8));

}  // namespace
}  // namespace mad
