#ifndef MAD_SERVER_SERVER_H_
#define MAD_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mql/session.h"
#include "server/protocol.h"
#include "storage/database.h"
#include "storage/durable_database.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace mad {
namespace server {

/// Tuning knobs of MadServer. The defaults favour small test deployments;
/// docs/SERVER.md discusses sizing.
struct ServerOptions {
  /// Listen address. Tests bind the loopback only.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker threads executing statements. Each connection is a strand (its
  /// statements run one at a time, in arrival order), so more threads only
  /// help across connections. 0 = hardware concurrency, capped at 8.
  size_t executor_threads = 0;
  /// Admission control: a connection may have at most this many statements
  /// queued + running; the next QUERY is shed with BUSY.
  size_t per_connection_queue = 64;
  /// Admission control: across all connections at most this many statements
  /// may be queued + running; beyond it every QUERY is shed with BUSY.
  size_t global_inflight = 256;
  /// Connections beyond this are accepted, told BYE, and closed.
  size_t max_connections = 64;
  /// Close a connection after this long without a complete frame from the
  /// client. 0 disables the idle timeout.
  uint64_t idle_timeout_ms = 0;
  /// Template for the per-connection MQL sessions (sync, trace, ...).
  mql::SessionOptions session_options;
};

/// Point-in-time counters of one server (SHOW METRICS reports the same
/// numbers through the global registry; this struct is for tests and the
/// shutdown log line).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t statements_ok = 0;
  uint64_t statements_error = 0;
  uint64_t shed_busy = 0;
  uint64_t protocol_errors = 0;
};

/// A TCP front end multiplexing many wire-protocol connections onto one
/// shared Database. Each connection gets its own mql::Session (sessions are
/// not thread-safe; the Database below them is, via its MVCC snapshots and
/// caller-locks contract).
///
/// Threading model: one acceptor thread; one reader thread per connection
/// (poll + FrameDecoder, answers PING inline, enqueues QUERY); a shared
/// executor pool running connections as strands — a connection's statements
/// execute one at a time in arrival order, different connections execute
/// concurrently. Responses carry the client's request id, so a pipelining
/// client can keep many statements in flight; BUSY sheds are sent from the
/// reader thread and may overtake earlier results.
///
/// Shutdown() drains gracefully: stop accepting, stop reading, finish every
/// admitted statement, roll back open transactions (Session destructors),
/// send BYE, and — when the server was given a DurableDatabase — take a
/// final checkpoint.
class MadServer {
 public:
  /// The server executes against *db. When `durable` is non-null it must
  /// wrap the same database; Shutdown() then ends with a checkpoint.
  MadServer(Database* db, ServerOptions options,
            DurableDatabase* durable = nullptr);
  ~MadServer();

  MadServer(const MadServer&) = delete;
  MadServer& operator=(const MadServer&) = delete;

  /// Binds, listens, and starts the acceptor + executor threads.
  Status Start();

  /// The bound TCP port (after Start(); useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// Graceful drain; idempotent, also run by the destructor.
  void Shutdown() MAD_EXCLUDES(exec_mu_, conns_mu_);

  ServerStats stats() const;

 private:
  struct Connection;

  void AcceptLoop() MAD_EXCLUDES(conns_mu_);
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void ExecutorLoop() MAD_EXCLUDES(exec_mu_);
  /// Handles one decoded client message; called on the reader thread.
  void HandleMessage(const std::shared_ptr<Connection>& conn,
                     const Message& message) MAD_EXCLUDES(exec_mu_);
  /// Runs the next queued statement of `conn`; called on an executor thread.
  void ExecuteOne(const std::shared_ptr<Connection>& conn)
      MAD_EXCLUDES(exec_mu_);
  /// Executes one statement text on the connection's session and renders
  /// the response message.
  Message RunStatement(const std::shared_ptr<Connection>& conn,
                       uint64_t request_id, const std::string& text);
  /// Frames and writes a message on the connection's socket (serialized by
  /// the connection's write mutex). Write errors mark the connection dead.
  void SendMessage(const std::shared_ptr<Connection>& conn,
                   const Message& message);
  /// Closes the socket and forgets the connection (unregisters it from
  /// connections_); safe to call more than once.
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       const std::string& reason, bool send_bye);

  // --- Strand invariant, in annotated form ---------------------------------
  // A connection's queue / scheduled / running fields live in Connection but
  // belong to exec_mu_ (the analysis cannot follow a capability through the
  // back-pointer, so the manipulation is concentrated in these REQUIRES-
  // annotated helpers instead; nothing else may touch those fields).

  /// Admission control + enqueue for one QUERY. Returns nullptr when
  /// admitted (scheduling the strand if idle), else the shed reason.
  const char* TryAdmitLocked(const std::shared_ptr<Connection>& conn,
                             uint64_t request_id, const std::string& text)
      MAD_REQUIRES(exec_mu_);
  /// Pops the next statement of `conn`'s strand and marks it running.
  /// False when the queue emptied underneath the scheduler.
  bool DequeueLocked(Connection& conn, uint64_t* request_id, std::string* text)
      MAD_REQUIRES(exec_mu_);
  /// Marks the statement finished, reschedules the strand if more work is
  /// queued; true when the connection should close (drained after GOODBYE).
  bool FinishStatementLocked(const std::shared_ptr<Connection>& conn)
      MAD_REQUIRES(exec_mu_);
  /// Records a GOODBYE; true when the strand is already drained and the
  /// connection should close immediately.
  bool NoteGoodbyeLocked(Connection& conn) MAD_REQUIRES(exec_mu_);

  Database* db_;
  DurableDatabase* durable_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  std::thread acceptor_;
  std::vector<std::thread> executors_;

  /// Admission/queue mutex: guards the runnable deque, the global in-flight
  /// count, and every Connection's queue/scheduled/running fields (via the
  /// *Locked helpers above). Leaf lock next to the storage locks; never
  /// held across statement execution or a socket write.
  Mutex exec_mu_;
  CondVar exec_cv_;
  // Executor queue: connections with runnable statements. A connection is
  // present at most once (strand invariant: `scheduled` guards re-entry).
  std::deque<std::shared_ptr<Connection>> runnable_ MAD_GUARDED_BY(exec_mu_);
  /// Statements admitted (queued or running) across all connections.
  size_t global_inflight_ MAD_GUARDED_BY(exec_mu_) = 0;
  /// Signalled whenever global_inflight_ drops; Shutdown waits on it.
  CondVar drained_cv_;

  mutable Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> connections_
      MAD_GUARDED_BY(conns_mu_);

  // Server-wide metrics (permanent registry entries).
  Counter* connections_accepted_;
  Gauge* connections_active_;
  Counter* statements_ok_;
  Counter* statements_error_;
  Counter* shed_busy_;
  Counter* protocol_errors_;
  Counter* bytes_read_;
  Counter* bytes_written_;
  Histogram* statement_us_;
};

}  // namespace server
}  // namespace mad

#endif  // MAD_SERVER_SERVER_H_
