// Regression coverage for per-session metrics. The statement counters used
// to publish only through function-local static handles ("mql.statements"):
// process-wide metrics, so one session's count could not be told from
// another's. Each session now owns labeled handles under
// "mql.session.<id>.*"; the process-wide aggregates remain alongside.

#include <gtest/gtest.h>

#include <string>

#include "mql/session.h"
#include "util/metrics.h"

namespace mad {
namespace mql {
namespace {

std::string Prefix(const Session& session) {
  return "mql.session." + std::to_string(session.session_id()) + ".";
}

TEST(SessionMetricsTest, SessionsGetDistinctIds) {
  Database db("METRICS");
  Session a(&db);
  Session b(&db);
  EXPECT_NE(a.session_id(), b.session_id());
}

TEST(SessionMetricsTest, StatementCountersArePerSessionAndAggregate) {
  Database db("METRICS");
  Session a(&db);
  Session b(&db);
  Counter& count_a = Registry::Global().GetCounter(Prefix(a) + "statements");
  Counter& count_b = Registry::Global().GetCounter(Prefix(b) + "statements");
  Counter& global = Registry::Global().GetCounter("mql.statements");
  const uint64_t global_before = global.value();

  ASSERT_TRUE(a.Execute("CREATE ATOM TYPE t (name STRING);").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO t VALUES ('x');").ok());
  ASSERT_TRUE(b.Execute("SET TRACE OFF;").ok());

  EXPECT_EQ(count_a.value(), 2u);
  EXPECT_EQ(count_b.value(), 1u);
  // The dashboard-pinned process aggregate still counts everything.
  EXPECT_EQ(global.value(), global_before + 3);

  Histogram& lat_a = Registry::Global().GetHistogram(Prefix(a) +
                                                     "statement_us");
  EXPECT_EQ(lat_a.count(), 2u);
}

}  // namespace
}  // namespace mql
}  // namespace mad
