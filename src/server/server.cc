#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <variant>

#include "mql/ast.h"
#include "mql/parser.h"
#include "server/result_render.h"
#include "util/string_util.h"

namespace mad {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll granularity of the reader/acceptor loops: the upper bound on how
/// long shutdown waits for a thread to notice the stop flag.
constexpr int kPollMs = 50;

uint64_t ElapsedUs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

}  // namespace

/// Per-connection state. The reader thread owns fd reads and the decoder;
/// executor threads own `session` (the strand invariant — at most one
/// executor runs a given connection at a time — makes that single-threaded);
/// `write_mu` serializes frame writes from either side. Queue fields are
/// guarded by the server's exec_mu_ (see the *Locked helpers).
struct MadServer::Connection {
  Connection(int fd_in, Database* db,
             const mql::SessionOptions& session_options)
      : fd(fd_in),
        session(std::make_unique<mql::Session>(db, session_options)) {}

  /// The connection owns its socket: the fd is closed only when the last
  /// shared_ptr holder lets go. Closing it earlier (as the accept-loop reap
  /// once did) races an executor still sending a late response — the fd
  /// number can be reused by a brand-new connection in between, sending one
  /// client's result to another's socket.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  std::unique_ptr<mql::Session> session;

  Mutex write_mu;
  std::atomic<bool> dead{false};
  std::atomic<bool> closed{false};
  std::atomic<bool> hello_done{false};
  std::atomic<bool> goodbye{false};
  std::atomic<bool> reader_done{false};
  std::thread reader;

  // Guarded by MadServer::exec_mu_; touched only by the *Locked helpers
  // (the analysis cannot attach a capability through the back-pointer).
  std::deque<std::pair<uint64_t, std::string>> queue;  // (request id, MQL)
  bool scheduled = false;
  bool running = false;
};

MadServer::MadServer(Database* db, ServerOptions options,
                     DurableDatabase* durable)
    : db_(db),
      durable_(durable),
      options_(std::move(options)),
      connections_accepted_(
          &Registry::Global().GetCounter("server.connections_accepted")),
      connections_active_(
          &Registry::Global().GetGauge("server.connections_active")),
      statements_ok_(&Registry::Global().GetCounter("server.statements_ok")),
      statements_error_(
          &Registry::Global().GetCounter("server.statements_error")),
      shed_busy_(&Registry::Global().GetCounter("server.shed_busy")),
      protocol_errors_(
          &Registry::Global().GetCounter("server.protocol_errors")),
      bytes_read_(&Registry::Global().GetCounter("server.bytes_read")),
      bytes_written_(&Registry::Global().GetCounter("server.bytes_written")),
      statement_us_(&Registry::Global().GetHistogram("server.statement_us")) {
  if (options_.executor_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    options_.executor_threads = hw == 0 ? 2 : (hw > 8 ? 8 : hw);
  }
}

MadServer::~MadServer() { Shutdown(); }

Status MadServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + ErrnoMessage(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status =
        Status::Internal(std::string("bind: ") + ErrnoMessage(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status status =
        Status::Internal(std::string("listen: ") + ErrnoMessage(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  draining_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  executors_.reserve(options_.executor_threads);
  for (size_t i = 0; i < options_.executor_threads; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  return Status::OK();
}

void MadServer::AcceptLoop() {
  while (running_.load()) {
    // Reap connections whose reader thread has finished, so connection
    // churn does not accumulate dead Connection objects. The fd is NOT
    // closed here: an executor may still hold the connection for a late
    // response, so the socket closes with the last shared_ptr (~Connection).
    {
      MutexLock lock(conns_mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->reader_done.load()) {
          (*it)->reader.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::shared_ptr<Connection> conn;
    {
      MutexLock lock(conns_mu_);
      if (connections_.size() >= options_.max_connections ||
          draining_.load()) {
        // Refused before a Connection exists: frame the BYE by hand.
        Message bye;
        bye.type = MessageType::kBye;
        bye.text = draining_.load() ? "server is shutting down"
                                    : "server is at its connection limit";
        std::string frame = FrameMessage(bye);
        (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      conn = std::make_shared<Connection>(fd, db_, options_.session_options);
      connections_.push_back(conn);
    }
    connections_accepted_->Increment();
    connections_active_->Add(1);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void MadServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder;
  char buf[16 * 1024];
  Clock::time_point last_activity = Clock::now();
  while (!conn->dead.load() && running_.load()) {
    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) break;
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0 &&
          ElapsedUs(last_activity) / 1000 > options_.idle_timeout_ms) {
        CloseConnection(conn, "idle timeout", /*send_bye=*/true);
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      CloseConnection(conn, "peer closed", /*send_bye=*/false);
      break;
    }
    last_activity = Clock::now();
    bytes_read_->Add(static_cast<uint64_t>(n));
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    while (true) {
      Message message;
      Result<bool> got = decoder.Next(&message);
      if (!got.ok()) {
        protocol_errors_->Increment();
        CloseConnection(conn, "protocol error: " + got.status().message(),
                        /*send_bye=*/true);
        break;
      }
      if (!*got) break;
      HandleMessage(conn, message);
    }
  }
  conn->reader_done.store(true);
}

void MadServer::HandleMessage(const std::shared_ptr<Connection>& conn,
                              const Message& message) {
  if (conn->dead.load()) return;
  if (!conn->hello_done.load()) {
    if (message.type != MessageType::kHello) {
      protocol_errors_->Increment();
      CloseConnection(conn, "expected HELLO first", /*send_bye=*/true);
      return;
    }
    if (message.code != kProtocolVersion) {
      CloseConnection(conn,
                      "protocol version " + std::to_string(message.code) +
                          " unsupported (server speaks " +
                          std::to_string(kProtocolVersion) + ")",
                      /*send_bye=*/true);
      return;
    }
    Message ok;
    ok.type = MessageType::kHelloOk;
    ok.request_id = message.request_id;
    ok.text = "madlib mad_server";
    ok.code = kProtocolVersion;
    ok.session_id = conn->session->session_id();
    conn->hello_done.store(true);
    SendMessage(conn, ok);
    return;
  }
  switch (message.type) {
    case MessageType::kPing: {
      Message pong;
      pong.type = MessageType::kPong;
      pong.request_id = message.request_id;
      SendMessage(conn, pong);
      return;
    }
    case MessageType::kGoodbye: {
      bool close_now = false;
      {
        MutexLock lock(exec_mu_);
        close_now = NoteGoodbyeLocked(*conn);
      }
      // With work still queued, the executor sends BYE once the strand
      // drains (see ExecuteOne).
      if (close_now) {
        CloseConnection(conn, "goodbye", /*send_bye=*/true);
      }
      return;
    }
    case MessageType::kQuery: {
      const char* shed_reason = nullptr;
      {
        MutexLock lock(exec_mu_);
        shed_reason = TryAdmitLocked(conn, message.request_id, message.text);
      }
      if (shed_reason != nullptr) {
        shed_busy_->Increment();
        Message busy;
        busy.type = MessageType::kBusy;
        busy.request_id = message.request_id;
        busy.text = shed_reason;
        SendMessage(conn, busy);
      }
      return;
    }
    default:
      // Server-to-client types (or a second HELLO) are not valid here.
      protocol_errors_->Increment();
      CloseConnection(conn,
                      std::string("unexpected ") +
                          MessageTypeName(message.type) + " message",
                      /*send_bye=*/true);
      return;
  }
}

void MadServer::ExecutorLoop() {
  while (true) {
    std::shared_ptr<Connection> conn;
    {
      MutexLock lock(exec_mu_);
      while (runnable_.empty() && running_.load()) exec_cv_.Wait(exec_mu_);
      if (runnable_.empty()) {
        if (!running_.load()) return;
        continue;
      }
      conn = std::move(runnable_.front());
      runnable_.pop_front();
    }
    ExecuteOne(conn);
  }
}

const char* MadServer::TryAdmitLocked(const std::shared_ptr<Connection>& conn,
                                      uint64_t request_id,
                                      const std::string& text) {
  size_t in_flight = conn->queue.size() + (conn->running ? 1 : 0);
  if (draining_.load()) return "server is draining";
  if (conn->goodbye.load()) return "connection said GOODBYE";
  if (global_inflight_ >= options_.global_inflight) {
    return "server admission limit reached";
  }
  if (in_flight >= options_.per_connection_queue) {
    return "connection queue full";
  }
  conn->queue.emplace_back(request_id, text);
  ++global_inflight_;
  if (!conn->scheduled && !conn->running) {
    conn->scheduled = true;
    runnable_.push_back(conn);
    exec_cv_.NotifyOne();
  }
  return nullptr;
}

bool MadServer::DequeueLocked(Connection& conn, uint64_t* request_id,
                              std::string* text) {
  conn.scheduled = false;
  if (conn.queue.empty()) return false;  // closed underneath us
  conn.running = true;
  *request_id = conn.queue.front().first;
  *text = std::move(conn.queue.front().second);
  conn.queue.pop_front();
  return true;
}

bool MadServer::FinishStatementLocked(
    const std::shared_ptr<Connection>& conn) {
  conn->running = false;
  --global_inflight_;
  drained_cv_.NotifyAll();
  if (!conn->queue.empty() && !conn->scheduled) {
    conn->scheduled = true;
    runnable_.push_back(conn);
    exec_cv_.NotifyOne();
    return false;
  }
  return conn->queue.empty() && conn->goodbye.load();
}

bool MadServer::NoteGoodbyeLocked(Connection& conn) {
  conn.goodbye = true;
  return conn.queue.empty() && !conn.running;
}

void MadServer::ExecuteOne(const std::shared_ptr<Connection>& conn) {
  uint64_t request_id = 0;
  std::string text;
  {
    MutexLock lock(exec_mu_);
    if (!DequeueLocked(*conn, &request_id, &text)) return;
  }

  if (!conn->dead.load()) {
    Message response = RunStatement(conn, request_id, text);
    SendMessage(conn, response);
  }

  bool close_after_drain = false;
  {
    MutexLock lock(exec_mu_);
    close_after_drain = FinishStatementLocked(conn);
  }
  if (close_after_drain) {
    CloseConnection(conn, "goodbye", /*send_bye=*/true);
  }
}

Message MadServer::RunStatement(const std::shared_ptr<Connection>& conn,
                                uint64_t request_id, const std::string& text) {
  Message response;
  response.request_id = request_id;

  // Server sessions share the one database this server was given; OPEN
  // would swap this session alone onto a private durable store. The one
  // parse of the statement rejects it with a clear error; OPEN is the only
  // statement server.statement_us does not time.
  Clock::time_point start = Clock::now();
  Result<mql::Statement> parsed = mql::ParseStatement(text);
  if (parsed.ok() && std::holds_alternative<mql::OpenStatement>(*parsed)) {
    statements_error_->Increment();
    response.type = MessageType::kError;
    response.code = static_cast<uint32_t>(StatusCode::kUnsupported);
    response.text =
        "OPEN is not available over the wire: every server session shares "
        "the database mad_server was started on (--db)";
    return response;
  }
  Result<mql::QueryResult> result =
      parsed.ok() ? conn->session->Execute(std::move(parsed).value())
                  : Result<mql::QueryResult>(parsed.status());
  statement_us_->Observe(ElapsedUs(start));

  if (!result.ok()) {
    statements_error_->Increment();
    response.type = MessageType::kError;
    response.code = static_cast<uint32_t>(result.status().code());
    response.text = result.status().ToString();
    return response;
  }
  statements_ok_->Increment();
  response.type = MessageType::kResult;
  response.epoch = result->epoch;
  response.affected = result->affected;
  {
    // Rendering reads atom values back from the stores, at the result's
    // view; the shared lock keeps other connections' DDL and writes off the
    // stores while it does.
    Database& db = conn->session->database();
    ReaderLock lock(db.mutex());
    response.text = RenderQueryResult(db, *result);
  }
  return response;
}

void MadServer::SendMessage(const std::shared_ptr<Connection>& conn,
                            const Message& message) {
  if (conn->dead.load()) return;
  std::string frame = FrameMessage(message);
  MutexLock lock(conn->write_mu);
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(conn->fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      conn->dead.store(true);
      return;
    }
    sent += static_cast<size_t>(n);
  }
  bytes_written_->Add(frame.size());
}

void MadServer::CloseConnection(const std::shared_ptr<Connection>& conn,
                                const std::string& reason, bool send_bye) {
  if (conn->closed.exchange(true)) return;
  if (send_bye) {
    Message bye;
    bye.type = MessageType::kBye;
    bye.text = reason;
    SendMessage(conn, bye);
  }
  conn->dead.store(true);
  // Wakes the reader out of poll(); the fd itself is closed once the reader
  // is done with it (reaped in AcceptLoop or joined in Shutdown).
  ::shutdown(conn->fd, SHUT_RDWR);
  connections_active_->Add(-1);
}

ServerStats MadServer::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_->value();
  stats.connections_active =
      static_cast<uint64_t>(connections_active_->value() < 0
                                ? 0
                                : connections_active_->value());
  stats.statements_ok = statements_ok_->value();
  stats.statements_error = statements_error_->value();
  stats.shed_busy = shed_busy_->value();
  stats.protocol_errors = protocol_errors_->value();
  return stats;
}

void MadServer::Shutdown() {
  if (!running_.load() && acceptor_.get_id() == std::thread::id()) return;

  // 1. Stop admitting: new connections are refused, new QUERYs shed BUSY.
  draining_.store(true);

  // 2. Finish everything already admitted.
  {
    MutexLock lock(exec_mu_);
    while (global_inflight_ != 0) drained_cv_.Wait(exec_mu_);
  }

  // 3. Stop the machinery: acceptor first (no new connections), then the
  //    executors (queues are empty now). The empty critical section orders
  //    the running_ store against an executor between its predicate check
  //    and its wait, so the notify cannot be lost.
  running_.store(false);
  if (acceptor_.joinable()) acceptor_.join();
  {
    MutexLock lock(exec_mu_);
  }
  exec_cv_.NotifyAll();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();

  // 4. Say BYE, close sockets, join readers, destroy sessions. Destroying
  //    a Session rolls back its open transaction, so a client that died
  //    mid-BEGIN leaves nothing behind.
  std::vector<std::shared_ptr<Connection>> remaining;
  {
    MutexLock lock(conns_mu_);
    remaining.swap(connections_);
  }
  for (const std::shared_ptr<Connection>& conn : remaining) {
    CloseConnection(conn, "server shutting down", /*send_bye=*/true);
  }
  for (const std::shared_ptr<Connection>& conn : remaining) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  remaining.clear();  // ~Connection closes each fd

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 5. A durable server ends with a checkpoint, so restart replays nothing.
  if (durable_ != nullptr) {
    (void)durable_->Checkpoint();
  }
}

}  // namespace server
}  // namespace mad
