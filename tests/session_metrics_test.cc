// Statement metrics of mql::Session. Every session counts its statements in
// the one process-wide "mql.statements" counter and times them in
// "mql.statement_us"; no instrument is registered per session, so opening
// and closing sessions leaves the registry as it was.

#include <gtest/gtest.h>

#include "mql/session.h"
#include "util/metrics.h"

namespace mad {
namespace mql {
namespace {

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
  Counter& global = Registry::Global().GetCounter("mql.statements");
  const uint64_t global_before = global.value();

  ASSERT_TRUE(a.Execute("CREATE ATOM TYPE t (name STRING);").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO t VALUES ('x');").ok());
  ASSERT_TRUE(b.Execute("SET TRACE OFF;").ok());

  // The process aggregate counts every session's statements.
  EXPECT_EQ(global.value(), global_before + 3);
}

}  // namespace
}  // namespace mql
}  // namespace mad
