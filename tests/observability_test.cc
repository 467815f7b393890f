// End-to-end observability: EXPLAIN ANALYZE produces a span tree whose
// cardinalities match the plain query's result and whose per-operator times
// nest consistently, SHOW METRICS reports the instruments the query touched,
// the trace JSON stays parseable, and a span note is built only under a
// trace.

#include <gtest/gtest.h>

#include <string>

#include "mql/session.h"
#include "text/printer.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/geo.h"

namespace mad {
namespace mql {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
    session_ = std::make_unique<Session>(&db_);
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
  std::unique_ptr<Session> session_;
};

TEST_F(ObservabilityTest, ExplainAnalyzeMatchesPlainQueryCardinalities) {
  // The Fig. 2 'mt_state' molecule query, filtered on a non-root node: the
  // WHERE is pushed into the derivation as a compiled per-node filter, so
  // the sigma fuses over the fan-out instead of running afterwards.
  const char* body =
      "SELECT ALL FROM state-area-edge-point WHERE area.name = 'a7';";
  auto plain = session_->Execute(body);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(plain->molecules->size(), 1u);
  ASSERT_TRUE(plain->derivation.has_value());
  const size_t derived = plain->derivation->roots;
  ASSERT_EQ(derived, 10u);  // every state still fans out...
  EXPECT_EQ(plain->derivation->molecules_rejected, 9u);  // ...9 are pruned

  auto analyzed = session_->Execute(std::string("EXPLAIN ANALYZE ") + body);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_EQ(analyzed->kind, QueryResult::Kind::kCommand);
  EXPECT_NE(analyzed->message.find("-- execution profile --"),
            std::string::npos);
  EXPECT_NE(analyzed->message.find("trace:"), std::string::npos);
  ASSERT_NE(analyzed->trace, nullptr);

  const std::vector<TraceSpan>& spans = analyzed->trace->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "select");
  EXPECT_EQ(spans[0].parent, TraceSpan::kNoParent);
  EXPECT_EQ(spans[0].rows_out, 1);  // matches the plain query's result

  const TraceSpan* derive = nullptr;
  const TraceSpan* sigma = nullptr;
  for (const TraceSpan& span : spans) {
    if (span.name == "derive") derive = &span;
    if (span.name == "sigma") sigma = &span;
  }
  ASSERT_NE(derive, nullptr);
  // The pushed filter rejects inside the fan-out, so the derive span
  // already reports the survivors.
  EXPECT_EQ(derive->rows_out, 1);
  ASSERT_NE(sigma, nullptr);
  EXPECT_EQ(sigma->rows_in, static_cast<int64_t>(derived));
  EXPECT_EQ(sigma->rows_out, 1);
}

TEST_F(ObservabilityTest, ExplainAnalyzeSpanTimesNest) {
  auto analyzed = session_->Execute(
      "EXPLAIN ANALYZE SELECT ALL FROM state-area-edge-point;");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  ASSERT_NE(analyzed->trace, nullptr);
  const std::vector<TraceSpan>& spans = analyzed->trace->spans();
  ASSERT_FALSE(spans.empty());

  // Tree invariants: id == index, parent precedes child.
  std::vector<uint64_t> child_sum_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, static_cast<int32_t>(i));
    ASSERT_LT(spans[i].parent, static_cast<int32_t>(i));
    if (spans[i].parent != TraceSpan::kNoParent) {
      child_sum_ns[static_cast<size_t>(spans[i].parent)] +=
          spans[i].duration_ns;
    }
  }
  // Spans on one thread nest strictly, so the children of any span account
  // for at most its own wall time, and the root for at most the statement
  // total. This is the "per-operator times sum to total query time (within
  // overhead)" acceptance check.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LE(child_sum_ns[i], spans[i].duration_ns)
        << "children of span " << i << " (" << spans[i].name
        << ") exceed its duration";
  }
  EXPECT_GT(spans[0].duration_ns, 0u);
  EXPECT_LE(spans[0].duration_ns, analyzed->trace->total_duration_ns());
}

TEST_F(ObservabilityTest, ExplainWithoutAnalyzeDoesNotExecute) {
  auto plan = session_->Execute(
      "EXPLAIN SELECT ALL FROM state-area-edge-point;");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->kind, QueryResult::Kind::kCommand);
  EXPECT_EQ(plan->message.find("-- execution profile --"), std::string::npos);
  EXPECT_EQ(plan->trace, nullptr);
}

TEST_F(ObservabilityTest, ShowMetricsReportsQueryInstruments) {
  ASSERT_TRUE(
      session_->Execute("SELECT ALL FROM state-area-edge-point;").ok());
  auto metrics = session_->Execute("SHOW METRICS;");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->kind, QueryResult::Kind::kCommand);
  for (const char* name :
       {"derivation.roots", "derivation.atoms_visited", "mql.statements",
        "mql.statement_us"}) {
    EXPECT_NE(metrics->message.find(name), std::string::npos)
        << name << " missing from:\n" << metrics->message;
  }
  // The registry outlives sessions; the counters only ever grow.
  EXPECT_GE(Registry::Global().GetCounter("derivation.roots").value(), 10u);
}

TEST_F(ObservabilityTest, TraceJsonStaysWellFormed) {
  auto analyzed = session_->Execute(
      "EXPLAIN ANALYZE SELECT ALL FROM state-area-edge-point "
      "WHERE area.name = 'a7';");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  ASSERT_NE(analyzed->trace, nullptr);
  std::string json = text::QueryTraceToJson(*analyzed->trace);
  // Every span serializes as one object; braces and quotes stay balanced.
  size_t objects = 0;
  for (size_t pos = json.find("{\"id\":"); pos != std::string::npos;
       pos = json.find("{\"id\":", pos + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, analyzed->trace->spans().size());
  long depth = 0;
  size_t quotes = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '"') ++quotes;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
}

TEST(ScopedSpanTest, NoteCallableRunsOnlyUnderATrace) {
  int calls = 0;
  auto note = [&] {
    ++calls;
    return std::string("depth 0");
  };
  {
    ScopedSpan span("closure-round", note);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(calls, 0);

  QueryTrace trace;
  {
    TraceScope scope(&trace);
    ScopedSpan span("closure-round", note);
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "closure-round");
  EXPECT_EQ(trace.spans()[0].note, "depth 0");
}

}  // namespace
}  // namespace mql
}  // namespace mad
