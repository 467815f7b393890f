// mad_server end to end, in process: concurrent connections produce
// bit-identical results to a local Session, pipelining preserves
// per-connection order, admission control sheds with BUSY instead of
// queueing without bound, graceful shutdown rolls back open transactions,
// idle connections are reaped, and protocol garbage tears the connection
// down without touching the server.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mql/session.h"
#include "server/client.h"
#include "server/result_render.h"
#include "server/server.h"
#include "storage/database.h"
#include "util/metrics.h"
#include "workload/geo.h"

namespace mad {
namespace server {
namespace {

/// Drops the derivation-stats footer ("derived N molecules: ... 0.01 ms")
/// before comparing rendered results: it embeds wall-clock time, the one
/// legitimately nondeterministic part of a rendering. Everything else —
/// molecule sets, link ids, diagnostics — must match byte for byte.
std::string StripTimings(const std::string& rendered) {
  std::string out;
  size_t pos = 0;
  while (pos < rendered.size()) {
    size_t end = rendered.find('\n', pos);
    if (end == std::string::npos) end = rendered.size() - 1;
    std::string_view line(rendered.data() + pos, end - pos + 1);
    if (line.rfind("derived ", 0) != 0) out += line;
    pos = end + 1;
  }
  return out;
}

/// The read-only statement sequence every connection replays. Molecule
/// registrations are session state, so the sequence is self-contained.
const char* kGeoStatements[] = {
    "SELECT ALL FROM map(state-area-edge-point);",
    "SELECT ALL FROM map WHERE state.name = 'SP';",
    "SELECT state.name FROM map WHERE point.x >= 0;",
    "SELECT ALL FROM city-point-edge-(area-state,net-river) "
    "WHERE city.name = 'Brasilia';",
    "CHECK SELECT ALL FROM map WHERE COUNT(point) >= 0;",
};

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db_).ok());
    server_ = std::make_unique<MadServer>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Database db_{"GEO_DB"};
  std::unique_ptr<MadServer> server_;
};

TEST_F(ServerTest, HandshakeAndPing) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_GT(client.session_id(), 0u);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, EightConnectionsAreBitIdenticalToALocalSession) {
  StartServer();
  const uint64_t protocol_errors_before = server_->stats().protocol_errors;

  constexpr size_t kConnections = 8;
  constexpr int kRounds = 5;

  // The reference: the same kRounds replays on a local session against an
  // identically-seeded database, rendered by the same function the server
  // uses — "bit-identical" is plain string equality. Replaying matters:
  // later rounds carry session-state diagnostics (e.g. MQL0501 for the
  // re-registered molecule type) that a single pass would not produce.
  std::vector<std::string> expected;
  {
    Database local("GEO_DB");
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(local).ok());
    mql::Session session(&local);
    for (int round = 0; round < kRounds; ++round) {
      for (const char* statement : kGeoStatements) {
        auto result = session.Execute(statement);
        ASSERT_TRUE(result.ok()) << result.status();
        expected.push_back(StripTimings(RenderQueryResult(local, *result)));
      }
    }
  }
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kConnections);
  for (size_t w = 0; w < kConnections; ++w) {
    workers.emplace_back([&, w] {
      Client client;
      Status connected = client.Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        failures[w] = connected.ToString();
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t s = 0; s < std::size(kGeoStatements); ++s) {
          const size_t e = round * std::size(kGeoStatements) + s;
          auto reply = client.Query(kGeoStatements[s]);
          if (!reply.ok()) {
            failures[w] = reply.status().ToString();
            return;
          }
          if (reply->type != MessageType::kResult) {
            failures[w] = "statement " + std::to_string(s) +
                          " returned " + MessageTypeName(reply->type) + ": " +
                          reply->text;
            return;
          }
          if (StripTimings(reply->text) != expected[e]) {
            failures[w] = "round " + std::to_string(round) + " statement " +
                          std::to_string(s) +
                          " diverged from the local session:\n--- remote\n" +
                          reply->text + "--- local\n" + expected[e];
            return;
          }
        }
      }
      (void)client.Close();
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t w = 0; w < kConnections; ++w) {
    EXPECT_EQ(failures[w], "") << "connection " << w;
  }
  EXPECT_EQ(server_->stats().protocol_errors, protocol_errors_before);
}

TEST_F(ServerTest, PipelinedResponsesComeBackInSendOrder) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  constexpr int kPipelined = 10;
  std::vector<uint64_t> sent;
  for (int i = 0; i < kPipelined; ++i) {
    auto id = client.SendQuery("SELECT ALL FROM state;");
    ASSERT_TRUE(id.ok()) << id.status();
    sent.push_back(*id);
  }
  for (int i = 0; i < kPipelined; ++i) {
    auto reply = client.ReadResponse();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
    EXPECT_EQ(reply->request_id, sent[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, OverloadShedsWithBusyInsteadOfQueueing) {
  ServerOptions options;
  options.executor_threads = 1;
  options.per_connection_queue = 2;
  options.global_inflight = 2;
  StartServer(options);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Registry instruments are process-global and survive across tests in
  // this binary; compare deltas.
  const uint64_t shed_before = server_->stats().shed_busy;

  // Fire a burst without reading; with room for only 2 in flight most of
  // the burst must come back BUSY — and every request gets exactly one
  // response (nothing is silently dropped or queued beyond the limit).
  constexpr int kBurst = 32;
  std::set<uint64_t> pending;
  for (int i = 0; i < kBurst; ++i) {
    auto id = client.SendQuery("SELECT ALL FROM state-area-edge-point;");
    ASSERT_TRUE(id.ok()) << id.status();
    pending.insert(*id);
  }
  int results = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = client.ReadResponse();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(pending.erase(reply->request_id), 1u)
        << "duplicate or unknown response id " << reply->request_id;
    if (reply->type == MessageType::kResult) {
      ++results;
    } else {
      ASSERT_EQ(reply->type, MessageType::kBusy) << reply->text;
      ++busy;
    }
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_GT(results, 0);
  EXPECT_GT(busy, 0);
  EXPECT_EQ(server_->stats().shed_busy - shed_before,
            static_cast<uint64_t>(busy));
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, ShutdownRollsBackOpenTransactions) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto begin = client.Query("BEGIN;");
  ASSERT_TRUE(begin.ok()) << begin.status();
  ASSERT_EQ(begin->type, MessageType::kResult) << begin->text;
  auto insert =
      client.Query("INSERT INTO state VALUES ('XX', 1);");
  ASSERT_TRUE(insert.ok());
  ASSERT_EQ(insert->type, MessageType::kResult) << insert->text;

  // Drain with the transaction still open: the server must finish what was
  // admitted, then roll the transaction back when the session dies.
  server_->Shutdown();
  EXPECT_EQ(db_.GetEpochStats().active_transactions, 0u);
  mql::Session local(&db_);
  auto count = local.Execute("SELECT ALL FROM state WHERE name = 'XX';");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->molecules->size(), 0u);
}

TEST_F(ServerTest, CommittedWorkSurvivesShutdown) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const char* statement :
       {"BEGIN;", "INSERT INTO state VALUES ('YY', 2);", "COMMIT;"}) {
    auto reply = client.Query(statement);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
  }
  server_->Shutdown();
  mql::Session local(&db_);
  auto count = local.Execute("SELECT ALL FROM state WHERE name = 'YY';");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->molecules->size(), 1u);
}

/// The text of a RESULT reply; a failed test on anything else.
std::string ResultText(Client& client, const std::string& statement) {
  auto reply = client.Query(statement);
  EXPECT_TRUE(reply.ok()) << statement << ": " << reply.status();
  if (!reply.ok()) return "";
  EXPECT_EQ(reply->type, MessageType::kResult) << statement << ": "
                                               << reply->text;
  return reply->text;
}

/// Matches SP only while it still has its original hectare.
constexpr char kSpAtOldHectare[] =
    "SELECT ALL FROM state WHERE state.name = 'SP' AND state.hectare = 1000;";

TEST_F(ServerTest, ResultsRenderWithoutAnotherConnectionsUncommittedWrite) {
  StartServer();
  Client writer;
  Client reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(reader.Connect("127.0.0.1", server_->port()).ok());
  ResultText(writer, "BEGIN;");
  ResultText(writer, "UPDATE state SET hectare = 99 WHERE name = 'SP';");
  const std::string text = ResultText(reader, kSpAtOldHectare);
  EXPECT_NE(text.find("molecule set (1 molecules)"), std::string::npos);
  EXPECT_NE(text.find("<'SP', 1000>"), std::string::npos) << text;
  EXPECT_EQ(text.find("<'SP', 99>"), std::string::npos) << text;
  ResultText(writer, "ROLLBACK;");
}

TEST_F(ServerTest, ResultsRenderAtThePinnedSnapshot) {
  StartServer();
  Client writer;
  Client reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(reader.Connect("127.0.0.1", server_->port()).ok());
  ResultText(reader, "SET PIN SNAPSHOT ON;");
  ResultText(writer, "UPDATE state SET hectare = 7 WHERE name = 'SP';");
  const std::string text = ResultText(reader, kSpAtOldHectare);
  EXPECT_NE(text.find("molecule set (1 molecules)"), std::string::npos);
  EXPECT_NE(text.find("<'SP', 1000>"), std::string::npos) << text;
  EXPECT_EQ(text.find("<'SP', 7>"), std::string::npos) << text;
}

TEST_F(ServerTest, ResultsRenderAnAtomAnotherConnectionIsDeleting) {
  StartServer();
  Client writer;
  Client reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(reader.Connect("127.0.0.1", server_->port()).ok());
  ResultText(writer, "BEGIN;");
  ResultText(writer, "DELETE FROM state WHERE name = 'SP';");
  const std::string text = ResultText(reader, kSpAtOldHectare);
  EXPECT_NE(text.find("<'SP', 1000>"), std::string::npos) << text;
  EXPECT_EQ(text.find("?>"), std::string::npos) << text;
  ResultText(writer, "ROLLBACK;");
}

TEST_F(ServerTest, IdleConnectionsAreClosedWithBye) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Don't send anything; the server must say BYE and close.
  auto reply = client.ReadResponse();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, MessageType::kBye);
  EXPECT_NE(reply->text.find("idle"), std::string::npos);
}

TEST_F(ServerTest, ProtocolGarbageTearsTheConnectionDownCleanly) {
  StartServer();
  const uint64_t protocol_errors_before = server_->stats().protocol_errors;
  // Raw socket: complete the handshake, then send bytes that are not a
  // frame. The server must answer BYE (or just close) and count a protocol
  // error — and keep serving other clients.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Message hello;
  hello.type = MessageType::kHello;
  hello.request_id = 1;
  hello.text = "garbage-client";
  hello.code = kProtocolVersion;
  std::string frame = FrameMessage(hello);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  const std::string garbage(64, '\xFF');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  // Read until the server closes on us (any BYE along the way is fine).
  char buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);

  // Poll: the reader thread flags the error asynchronously.
  for (int i = 0;
       i < 100 && server_->stats().protocol_errors == protocol_errors_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().protocol_errors, protocol_errors_before + 1);

  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server_->port()).ok());
  auto reply = healthy.Query("SELECT ALL FROM state;");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, MessageType::kResult) << reply->text;
}

TEST_F(ServerTest, ShowMetricsReportsServerInstruments) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Query("SHOW METRICS;");
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
  // Server-wide instruments surface through the one registry; no instrument
  // is kept per connection.
  EXPECT_NE(reply->text.find("server.connections_accepted"),
            std::string::npos);
  EXPECT_NE(reply->text.find("server.statement_us"), std::string::npos);
  EXPECT_EQ(reply->text.find("server.conn."), std::string::npos);
  EXPECT_TRUE(client.Close().ok());
}

/// The instrument names of a SHOW METRICS reply, one per table row.
std::set<std::string> MetricNames(const std::string& table) {
  std::set<std::string> names;
  size_t pos = 0;
  while (pos < table.size()) {
    size_t end = table.find('\n', pos);
    if (end == std::string::npos) end = table.size();
    if (end > pos) names.insert(table.substr(pos, table.find(' ', pos) - pos));
    pos = end + 1;
  }
  return names;
}

TEST_F(ServerTest, OneInstrumentPerEventAtEachLayer) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Registers every instrument a SELECT and a SHOW METRICS touch.
  ASSERT_TRUE(client.Query("SELECT ALL FROM state;").ok());
  ASSERT_TRUE(client.Query("SHOW METRICS;").ok());

  // The session counts and times the statement once, and the server counts
  // and times its reply once.
  Registry& registry = Registry::Global();
  Counter& statements = registry.GetCounter("mql.statements");
  Counter& ok = registry.GetCounter("server.statements_ok");
  Histogram& session_us = registry.GetHistogram("mql.statement_us");
  Histogram& server_us = registry.GetHistogram("server.statement_us");
  const uint64_t statements_before = statements.value();
  const uint64_t ok_before = ok.value();
  const uint64_t session_us_before = session_us.count();
  const uint64_t server_us_before = server_us.count();
  auto reply = client.Query("SELECT ALL FROM state;");
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
  EXPECT_EQ(statements.value(), statements_before + 1);
  EXPECT_EQ(ok.value(), ok_before + 1);
  EXPECT_EQ(session_us.count(), session_us_before + 1);
  EXPECT_EQ(server_us.count(), server_us_before + 1);

  // Open connections add no rows to SHOW METRICS.
  auto one = client.Query("SHOW METRICS;");
  ASSERT_TRUE(one.ok()) << one.status();
  std::vector<Client> others(3);
  for (Client& other : others) {
    ASSERT_TRUE(other.Connect("127.0.0.1", server_->port()).ok());
  }
  auto four = client.Query("SHOW METRICS;");
  ASSERT_TRUE(four.ok()) << four.status();
  EXPECT_EQ(MetricNames(four->text), MetricNames(one->text));
  for (Client& other : others) EXPECT_TRUE(other.Close().ok());
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, OpenIsRejectedOverTheWire) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  Histogram& timed = Registry::Global().GetHistogram("server.statement_us");
  const uint64_t timed_before = timed.count();
  auto reply = client.Query("OPEN 'somewhere';");
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, MessageType::kError);
  EXPECT_EQ(reply->code, static_cast<uint32_t>(StatusCode::kUnsupported));
  EXPECT_EQ(reply->text,
            "OPEN is not available over the wire: every server session "
            "shares the database mad_server was started on (--db)");
  // OPEN is refused before it runs, so the statement clock skips it.
  EXPECT_EQ(timed.count(), timed_before);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, SyntaxErrorMatchesALocalSession) {
  StartServer();
  const std::string bad = "SELECT ALL FROM;";
  mql::Session local(&db_);
  auto expected = local.Execute(bad);
  ASSERT_FALSE(expected.ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  Histogram& timed = Registry::Global().GetHistogram("server.statement_us");
  const uint64_t timed_before = timed.count();
  auto reply = client.Query(bad);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, MessageType::kError);
  EXPECT_EQ(reply->code, static_cast<uint32_t>(expected.status().code()));
  EXPECT_EQ(reply->text, expected.status().ToString());
  // The failed parse is timed like any other statement.
  EXPECT_EQ(timed.count(), timed_before + 1);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, VersionMismatchIsRefused) {
  StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Message hello;
  hello.type = MessageType::kHello;
  hello.request_id = 1;
  hello.text = "time-traveller";
  hello.code = kProtocolVersion + 1;
  std::string frame = FrameMessage(hello);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  FrameDecoder decoder;
  char buf[1024];
  Message reply;
  bool got_bye = false;
  while (!got_bye) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    auto next = decoder.Next(&reply);
    ASSERT_TRUE(next.ok()) << next.status();
    if (*next) got_bye = true;
  }
  ::close(fd);
  ASSERT_TRUE(got_bye);
  EXPECT_EQ(reply.type, MessageType::kBye);
  EXPECT_NE(reply.text.find("version"), std::string::npos);
}

TEST_F(ServerTest, ConnectionChurnReleasesScopedMetrics) {
  StartServer();
  // Warm up: the first connection and its SELECT materialize every
  // instrument the loop's statements touch.
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto reply = client.Query("SELECT ALL FROM state;");
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(client.Close().ok());
  }
  // No instrument is named after a connection or its session, so churn
  // leaves the registry as it was.
  const size_t before = Registry::Global().instrument_count();
  for (int i = 0; i < 20; ++i) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto reply = client.Query("SELECT ALL FROM state;");
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(client.Close().ok());
  }
  EXPECT_EQ(Registry::Global().instrument_count(), before);
}

// Regression test for the connection-teardown race: the accept loop used to
// close a vanished connection's fd while an executor could still be writing
// a late response to it — and once the OS reuses that fd number for a new
// socket, the stale write lands on the wrong client. The fd is now owned by
// the Connection (closed when the last reference drops), so abrupt
// disconnects with responses in flight must neither cross wires nor race
// the close (the tsan CI job runs this test under ThreadSanitizer).
TEST_F(ServerTest, AbruptDisconnectChurnWithResponsesInFlight) {
  ServerOptions options;
  options.executor_threads = 4;
  StartServer(options);
  for (int round = 0; round < 15; ++round) {
    // The victim pipelines several statements and vanishes without GOODBYE
    // while they are still queued or executing.
    Client victim;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server_->port()).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(victim.SendQuery(kGeoStatements[0]).ok());
    }
    victim.Abort();
    // Reconnect immediately: the OS hands the vacated fd number to the new
    // socket, which is exactly the wire-crossing hazard. The fresh client
    // must see its own result, never the victim's late response.
    Client fresh;
    ASSERT_TRUE(fresh.Connect("127.0.0.1", server_->port()).ok());
    auto reply = fresh.Query("SELECT ALL FROM state;");
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->type, MessageType::kResult) << reply->text;
    ASSERT_TRUE(fresh.Close().ok());
  }
}

}  // namespace
}  // namespace server
}  // namespace mad
