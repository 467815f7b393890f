// EXPLAIN prints the plan a SELECT executes: full-text plans for every plan
// shape, EXPLAIN ANALYZE lines matched one-to-one with the spans they
// produce, seed lines only where the seed applies at the statement's view,
// and EXPLAIN racing writers without touching unlocked storage.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "mql/session.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

struct GoldenPlan {
  const char* query;
  const char* plan;
};

/// Figure 4 (index on state.name) and the car BOM with suppliers.
class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(geo_).ok());
    ASSERT_TRUE(geo_.CreateIndex("state", "name").ok());
    auto ids = workload::BuildCarBom(bom_);
    ASSERT_TRUE(ids.ok());
    Schema supplier;
    ASSERT_TRUE(supplier.AddAttribute("company", DataType::kString).ok());
    ASSERT_TRUE(bom_.DefineAtomType("supplier", std::move(supplier)).ok());
    ASSERT_TRUE(bom_.DefineLinkType("supplies", "supplier", "part").ok());
    AtomId acme = *bom_.InsertAtom("supplier", {Value("Acme")});
    ASSERT_TRUE(bom_.InsertLink("supplies", acme, (*ids)["bolt"]).ok());
  }

  Database& DatabaseFor(const std::string& query) {
    return query.find("part") != std::string::npos ? bom_ : geo_;
  }

  Database geo_{"GEO_DB"};
  Database bom_{"BOM"};
};

const GoldenPlan kGoldenPlans[] = {
    // Index seed: the first root conjunct is an indexed equality.
    {"SELECT ALL FROM m(state-area-edge-point) "
     "WHERE state.name = 'SP' AND point.x >= 0;",
     "-- molecule algebra translation --\n"
     "a[m, {<state-area: state -> area>, <area-edge: area -> edge>, "
     "<edge-point: edge -> point>}]({state, area, edge, point})   "
     "-- molecule-type definition (Def. 8)\n"
     "Sigma[((state.name = 'SP') AND (point.x >= 0))]   "
     "-- molecule-type restriction (Def. 10)\n"
     "  push-down[state]: (state.name = 'SP')   -- compiled: 3 ops, "
     "1 literals, loops over {state}, batch[1/1 leaves]\n"
     "  push-down[point]: (point.x >= 0)   -- compiled: 3 ops, 1 literals, "
     "loops over {point}, batch[1/1 leaves]\n"
     "  seed-index[state.name = 'SP']   -- root fan-out from "
     "AttributeIndex\n"},
    // Scan seed: the first root conjunct is a comparison, no index on it.
    {"SELECT ALL FROM m(state-area-edge-point) WHERE state.hectare > 1000;",
     "-- molecule algebra translation --\n"
     "a[m, {<state-area: state -> area>, <area-edge: area -> edge>, "
     "<edge-point: edge -> point>}]({state, area, edge, point})   "
     "-- molecule-type definition (Def. 8)\n"
     "Sigma[(state.hectare > 1000)]   "
     "-- molecule-type restriction (Def. 10)\n"
     "  push-down[state]: (state.hectare > 1000)   -- compiled: 3 ops, "
     "1 literals, loops over {state}, batch[1/1 leaves]\n"
     "  seed-scan[state: (state.hectare > 1000)]   -- root fan-out from "
     "columnar kernel scan\n"},
    // Node filter plus a multi-node residual.
    {"SELECT ALL FROM m(state-area-edge-point) "
     "WHERE point.name = 'pn' AND state.hectare > area.hectare;",
     "-- molecule algebra translation --\n"
     "a[m, {<state-area: state -> area>, <area-edge: area -> edge>, "
     "<edge-point: edge -> point>}]({state, area, edge, point})   "
     "-- molecule-type definition (Def. 8)\n"
     "Sigma[((point.name = 'pn') AND (state.hectare > area.hectare))]   "
     "-- molecule-type restriction (Def. 10)\n"
     "  push-down[point]: (point.name = 'pn')   -- compiled: 3 ops, "
     "1 literals, loops over {point}, batch[1/1 leaves]\n"
     "  residual: (state.hectare > area.hectare)   -- compiled: 3 ops, "
     "0 literals, loops over {state, area}, scalar\n"},
    // COUNT and FORALL push down to their quantified nodes.
    {"SELECT ALL FROM m(state-area-edge-point) "
     "WHERE COUNT(area) >= 1 AND FORALL point (point.x >= 0);",
     "-- molecule algebra translation --\n"
     "a[m, {<state-area: state -> area>, <area-edge: area -> edge>, "
     "<edge-point: edge -> point>}]({state, area, edge, point})   "
     "-- molecule-type definition (Def. 8)\n"
     "Sigma[((COUNT(area) >= 1) AND FORALL point (point.x >= 0))]   "
     "-- molecule-type restriction (Def. 10)\n"
     "  push-down[area]: (COUNT(area) >= 1)   -- compiled: 3 ops, "
     "1 literals, no binding loops\n"
     "  push-down[point]: FORALL point (point.x >= 0)   -- compiled: "
     "3 ops, 1 literals, loops over {point}, batch[1/1 leaves]\n"},
    // Projection after a leaf filter.
    {"SELECT state.name, point FROM m(state-area-edge-point) "
     "WHERE point.name = 'pn';",
     "-- molecule algebra translation --\n"
     "a[m, {<state-area: state -> area>, <area-edge: area -> edge>, "
     "<edge-point: edge -> point>}]({state, area, edge, point})   "
     "-- molecule-type definition (Def. 8)\n"
     "Sigma[(point.name = 'pn')]   -- molecule-type restriction (Def. 10)\n"
     "  push-down[point]: (point.name = 'pn')   -- compiled: 3 ops, "
     "1 literals, loops over {point}, batch[1/1 leaves]\n"
     "Pi[{state(name), area, edge, point}]   -- molecule-type projection\n"},
    // Recursive structure with a WHERE over root and members.
    {"SELECT ALL FROM part-[composition*] "
     "WHERE root.cost > 1000 AND part.name = 'bolt';",
     "-- molecule algebra translation --\n"
     "closure[part, composition, forward, unbounded]   -- recursive "
     "molecule type [Schö89]\n"
     "Sigma[((root.cost > 1000) AND (part.name = 'bolt'))]   "
     "-- molecule-type restriction (Def. 10)   -- compiled: 6 ops, "
     "2 literals, loops over {root, part}, batch[2/2 leaves]\n"},
    // Recursive structure with an expansion tail.
    {"SELECT ALL FROM part-[composition~*2]-[supplies~]-supplier "
     "WHERE cost < 10;",
     "-- molecule algebra translation --\n"
     "closure[part, composition, backward, depth<=2]   -- recursive "
     "molecule type [Schö89]\n"
     "expand-each[part-supplier]   -- per-member component molecule\n"
     "Sigma[(cost < 10)]   -- molecule-type restriction (Def. 10)   "
     "-- compiled: 3 ops, 1 literals, loops over {part}, "
     "batch[1/1 leaves]\n"},
};

TEST_F(ExplainTest, GoldenPlans) {
  for (const GoldenPlan& golden : kGoldenPlans) {
    Session session(&DatabaseFor(golden.query));
    auto explained = session.Execute(std::string("EXPLAIN ") + golden.query);
    ASSERT_TRUE(explained.ok()) << golden.query << ": " << explained.status();
    EXPECT_EQ(explained->message, golden.plan) << golden.query;
  }
}

/// Plan lines and the spans executing them: each pair must appear together
/// or not at all.
struct LineSpan {
  const char* line_prefix;
  const char* span;
};
const LineSpan kLineSpans[] = {
    {"  seed-index[", "index-seed"}, {"  seed-scan[", "seed-scan"},
    {"Sigma[", "sigma"},             {"Pi[", "pi"},
    {"closure[", "closure"},         {"expand-each[", "expand"},
};

bool HasLine(const std::string& plan, const std::string& prefix) {
  size_t pos = 0;
  while (pos < plan.size()) {
    if (plan.compare(pos, prefix.size(), prefix) == 0) return true;
    pos = plan.find('\n', pos);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return false;
}

TEST_F(ExplainTest, AnalyzeLinesMatchSpans) {
  for (const GoldenPlan& golden : kGoldenPlans) {
    Session session(&DatabaseFor(golden.query));
    auto analyzed =
        session.Execute(std::string("EXPLAIN ANALYZE ") + golden.query);
    ASSERT_TRUE(analyzed.ok()) << golden.query << ": " << analyzed.status();
    ASSERT_NE(analyzed->trace, nullptr);
    const std::string& message = analyzed->message;
    const size_t profile = message.find("-- execution profile --\n");
    ASSERT_NE(profile, std::string::npos) << message;
    // The plan half is exactly what plain EXPLAIN prints.
    EXPECT_EQ(message.substr(0, profile), golden.plan) << golden.query;
    for (const LineSpan& pair : kLineSpans) {
      bool has_span = false;
      for (const TraceSpan& span : analyzed->trace->spans()) {
        has_span = has_span || span.name == pair.span;
      }
      EXPECT_EQ(HasLine(golden.plan, pair.line_prefix), has_span)
          << golden.query << ": line '" << pair.line_prefix << "' vs span '"
          << pair.span << "'\n"
          << message;
    }
  }
}

TEST_F(ExplainTest, PendingWritesDisableSeedAndBatch) {
  // Another session's pending insert makes the state head differ from this
  // session's view: the index and the columns mirror the head, so neither
  // seeds nor batch bitmaps may run, and EXPLAIN must not claim they do.
  Session writer(&geo_);
  ASSERT_TRUE(writer.Execute("BEGIN;").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO state VALUES ('XX', 10);").ok());

  Session reader(&geo_);
  auto analyzed = reader.Execute(
      "EXPLAIN ANALYZE SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name = 'SP';");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const std::string& message = analyzed->message;
  const std::string plan =
      message.substr(0, message.find("-- execution profile --"));
  EXPECT_EQ(plan.find("seed-"), std::string::npos) << plan;
  EXPECT_NE(plan.find("loops over {state}, scalar"), std::string::npos)
      << plan;
  const TraceSpan* sigma = nullptr;
  for (const TraceSpan& span : analyzed->trace->spans()) {
    EXPECT_NE(span.name, "index-seed");
    EXPECT_NE(span.name, "seed-scan");
    if (span.name == "sigma") sigma = &span;
  }
  ASSERT_NE(sigma, nullptr);
  EXPECT_EQ(sigma->rows_in, 10);
  EXPECT_EQ(sigma->rows_out, 1);
  ASSERT_TRUE(writer.Execute("ROLLBACK;").ok());

  // With the write gone the head is the view again, and the seed returns.
  auto seeded = reader.Execute(
      "EXPLAIN SELECT ALL FROM m(state-area-edge-point) "
      "WHERE state.name = 'SP';");
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_NE(seeded->message.find("seed-index[state.name = 'SP']"),
            std::string::npos)
      << seeded->message;
}

TEST(ExplainConcurrencyTest, ExplainRacesInserts) {
  // EXPLAIN compiles the WHERE against the state store; an autocommit
  // INSERT on another thread may reallocate that store meanwhile. Planning
  // under the statement's read lock keeps the two apart (ThreadSanitizer
  // checks this in CI).
  Database db("GEO_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Session session(&db);
    for (int i = 0; i < 200; ++i) {
      auto inserted = session.Execute("INSERT INTO state VALUES ('N" +
                                      std::to_string(i) + "', " +
                                      std::to_string(i) + ");");
      EXPECT_TRUE(inserted.ok()) << inserted.status();
    }
    done.store(true);
  });
  Session reader(&db);
  size_t explained = 0;
  while (!done.load() || explained < 20) {
    auto plan = reader.Execute(
        "EXPLAIN SELECT ALL FROM m(state-area-edge-point) "
        "WHERE state.hectare > 5;");
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(plan->message.find("push-down[state]"), std::string::npos);
    ++explained;
  }
  writer.join();
}

}  // namespace
}  // namespace mql
}  // namespace mad
