// mad_loadgen's library: workload splitting (setup prefix vs. replayed
// mix), percentile math, the bench JSON shape, and one end-to-end run
// against an in-process server.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mql/session.h"
#include "server/loadgen.h"
#include "server/server.h"
#include "storage/database.h"

namespace mad {
namespace server {
namespace {

TEST(LoadgenScriptTest, SplitsSetupPrefixFromMix) {
  auto script = SplitWorkloadScript(
      "-- comment with a ; semicolon\n"
      "CREATE ATOM TYPE t (name STRING);\n"
      "INSERT INTO t VALUES ('a;b', 'it''s');\n"  // ';' inside strings
      "SELECT ALL FROM m(t);\n"
      "INSERT INTO t VALUES ('late');\n"  // after the prefix ended: mix
      "SELECT ALL FROM m;");
  ASSERT_TRUE(script.ok()) << script.status();
  EXPECT_EQ(script->setup.size(), 2u);
  EXPECT_EQ(script->mix.size(), 3u);
  EXPECT_NE(script->mix[0].find("SELECT ALL FROM m(t)"), std::string::npos);
  EXPECT_NE(script->mix[1].find("'late'"), std::string::npos);
}

TEST(LoadgenScriptTest, RejectsSyntaxErrorsAndSetupOnlyScripts) {
  EXPECT_FALSE(SplitWorkloadScript("SELECT FROM FROM;").ok());
  // A script that is all setup has nothing to replay.
  EXPECT_FALSE(
      SplitWorkloadScript("CREATE ATOM TYPE t (name STRING);").ok());
}

TEST(LoadgenReportTest, PercentilesAreExact) {
  LoadgenReport report;
  for (uint64_t v = 1; v <= 100; ++v) report.latency_us.push_back(101 - v);
  EXPECT_EQ(report.PercentileUs(0.0), 1u);
  EXPECT_EQ(report.PercentileUs(0.50), 50u);
  EXPECT_EQ(report.PercentileUs(0.95), 95u);
  EXPECT_EQ(report.PercentileUs(1.0), 100u);
  LoadgenReport empty;
  EXPECT_EQ(empty.PercentileUs(0.99), 0u);
}

TEST(LoadgenReportTest, BenchJsonHasTheSharedShape) {
  LoadgenReport report;
  report.ok = 3;
  report.latency_us = {100, 200, 300};
  std::string json = LoadgenReportToBenchJson("bench_x", "geo_mix", report, 8);
  EXPECT_NE(json.find("\"benchmark\": \"bench_x\""), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"geo_mix/p50\""), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"geo_mix/p95\""), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"geo_mix/p99\""), std::string::npos);
  EXPECT_NE(json.find("\"parallelism\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"iterations\": 3"), std::string::npos);
}

TEST(LoadgenRunTest, ReplaysAMixOverManyConnections) {
  Database db("LOADGEN_DB");
  MadServer server(&db, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto script = SplitWorkloadScript(
      "CREATE ATOM TYPE t (name STRING);"
      "INSERT INTO t VALUES ('a'), ('b');"
      "SELECT ALL FROM m(t);"
      "SELECT ALL FROM m WHERE t.name = 'a';");
  ASSERT_TRUE(script.ok()) << script.status();

  LoadgenOptions options;
  options.port = server.port();
  options.connections = 4;
  options.statements_per_connection = 10;
  auto report = RunLoadgen(options, *script);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->ok, 40u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->protocol_errors, 0u);
  EXPECT_EQ(report->latency_us.size(), 40u);
  EXPECT_GT(report->PercentileUs(0.99), 0u);
  server.Shutdown();
}

TEST(LoadgenRunTest, AFailedStatementInATransactionRollsItBack) {
  Database db("LOADGEN_DB");
  MadServer server(&db, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // The second UPDATE always fails, so no transaction may commit the first.
  auto script = SplitWorkloadScript(
      "CREATE ATOM TYPE t (name STRING, v INT64);"
      "INSERT INTO t VALUES ('a', 0);"
      "BEGIN;"
      "UPDATE t SET v = v + 1 WHERE name = 'a';"
      "UPDATE missing SET v = 1;"
      "COMMIT;");
  ASSERT_TRUE(script.ok()) << script.status();

  LoadgenOptions options;
  options.port = server.port();
  options.connections = 1;
  options.statements_per_connection = 8;
  auto report = RunLoadgen(options, *script);
  ASSERT_TRUE(report.ok()) << report.status();
  // Twice: BEGIN, UPDATE, the failing UPDATE, then ROLLBACK, not COMMIT.
  EXPECT_EQ(report->ok, 6u);
  EXPECT_EQ(report->errors, 2u);
  EXPECT_EQ(report->protocol_errors, 0u);
  server.Shutdown();

  mql::Session local(&db);
  auto committed = local.Execute("SELECT ALL FROM t WHERE t.v = 0;");
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(committed->molecules->size(), 1u);
  EXPECT_EQ(db.GetEpochStats().active_transactions, 0u);
}

}  // namespace
}  // namespace server
}  // namespace mad
