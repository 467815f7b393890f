#include "server/loadgen.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <variant>

#include "mql/ast.h"
#include "mql/parser.h"
#include "server/client.h"
#include "util/sync.h"

namespace mad {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

bool IsSetupStatement(const mql::Statement& statement) {
  return std::holds_alternative<mql::CreateAtomTypeStatement>(statement) ||
         std::holds_alternative<mql::CreateLinkTypeStatement>(statement) ||
         std::holds_alternative<mql::InsertAtomStatement>(statement) ||
         std::holds_alternative<mql::InsertLinkStatement>(statement);
}

bool IsBlank(const std::string& text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Splits on top-level ';' — inside neither a '...' string (with ''
/// escapes) nor a -- comment. The statement text keeps its comments; the
/// server's parser handles them.
std::vector<std::string> SplitStatements(const std::string& text) {
  std::vector<std::string> statements;
  std::string current;
  bool in_string = false;
  bool in_comment = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    current += c;
    if (in_comment) {
      if (c == '\n') in_comment = false;
      continue;
    }
    if (in_string) {
      if (c == '\'') {
        if (i + 1 < text.size() && text[i + 1] == '\'') {
          current += text[++i];  // escaped quote stays in the string
        } else {
          in_string = false;
        }
      }
      continue;
    }
    if (c == '\'') {
      in_string = true;
    } else if (c == '-' && i + 1 < text.size() && text[i + 1] == '-') {
      in_comment = true;
    } else if (c == ';') {
      if (!IsBlank(current)) statements.push_back(current);
      current.clear();
    }
  }
  if (!IsBlank(current)) statements.push_back(current + ";");
  return statements;
}

struct SharedReport {
  Mutex mu;
  LoadgenReport report MAD_GUARDED_BY(mu);
};

/// Where a mix statement stands in a transaction.
enum class TxnRole { kNone, kBegin, kEnd };

std::vector<TxnRole> TxnRoles(const std::vector<std::string>& mix) {
  std::vector<TxnRole> roles;
  roles.reserve(mix.size());
  for (const std::string& text : mix) {
    Result<mql::Statement> parsed = mql::ParseStatement(text);
    TxnRole role = TxnRole::kNone;
    if (parsed.ok()) {
      if (std::holds_alternative<mql::BeginStatement>(*parsed)) {
        role = TxnRole::kBegin;
      } else if (std::holds_alternative<mql::CommitStatement>(*parsed) ||
                 std::holds_alternative<mql::RollbackStatement>(*parsed)) {
        role = TxnRole::kEnd;
      }
    }
    roles.push_back(role);
  }
  return roles;
}

}  // namespace

Result<LoadgenScript> SplitWorkloadScript(const std::string& text) {
  LoadgenScript script;
  bool in_prefix = true;
  for (std::string& statement : SplitStatements(text)) {
    if (in_prefix) {
      MAD_ASSIGN_OR_RETURN(mql::Statement parsed,
                           mql::ParseStatement(statement));
      if (!IsSetupStatement(parsed)) in_prefix = false;
    } else {
      // Past the prefix only a syntax check remains — a workload file with
      // a typo should fail at load time, not midway through a run.
      MAD_ASSIGN_OR_RETURN(mql::Statement parsed,
                           mql::ParseStatement(statement));
      (void)parsed;
    }
    (in_prefix ? script.setup : script.mix).push_back(std::move(statement));
  }
  if (script.mix.empty()) {
    return Status::InvalidArgument(
        "workload script has no mix statements after the CREATE/INSERT "
        "setup prefix");
  }
  return script;
}

uint64_t LoadgenReport::PercentileUs(double p) const {
  if (latency_us.empty()) return 0;
  std::vector<uint64_t> sorted = latency_us;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest sample with at least p of the distribution
  // at or below it.
  if (p <= 0.0) return sorted.front();
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options,
                                 const LoadgenScript& script) {
  if (options.connections == 0) {
    return Status::InvalidArgument("need at least one connection");
  }

  // Setup runs once, lock-step, before the clock starts.
  if (!script.setup.empty()) {
    Client setup_client;
    MAD_RETURN_IF_ERROR(setup_client.Connect(options.host, options.port,
                                             options.client_name + "-setup"));
    for (const std::string& statement : script.setup) {
      MAD_ASSIGN_OR_RETURN(Message reply, setup_client.Query(statement));
      if (reply.type != MessageType::kResult) {
        return Status::InvalidArgument("setup statement failed (" +
                                       std::string(MessageTypeName(
                                           reply.type)) +
                                       "): " + reply.text);
      }
    }
    MAD_RETURN_IF_ERROR(setup_client.Close());
  }

  const std::vector<TxnRole> roles = TxnRoles(script.mix);
  static const std::string kRollback = "ROLLBACK;";

  // Per-connection pacing interval for the aggregate target rate.
  const double interval_us =
      options.target_qps > 0
          ? 1e6 * static_cast<double>(options.connections) / options.target_qps
          : 0.0;

  SharedReport shared;
  std::atomic<uint64_t> connect_failures{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(options.duration_ms);

  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  for (size_t w = 0; w < options.connections; ++w) {
    workers.emplace_back([&, w] {
      Client client;
      if (!client
               .Connect(options.host, options.port,
                        options.client_name + "-" + std::to_string(w))
               .ok()) {
        connect_failures.fetch_add(1);
        return;
      }
      LoadgenReport local;
      uint64_t attempts = 0;
      size_t mix_index = 0;
      // A statement that fails inside BEGIN..COMMIT rolls the transaction
      // back instead of committing what came before it: the next statement
      // sent is a ROLLBACK, and the mix resumes after the transaction.
      bool in_txn = false;
      bool rollback_due = false;
      while (true) {
        if (options.duration_ms > 0) {
          if (Clock::now() >= deadline) break;
        } else if (attempts >= options.statements_per_connection) {
          break;
        }
        if (interval_us > 0) {
          // Open-loop pacing: statement k of this connection is due at
          // start + k * interval; sleep off any lead.
          Clock::time_point due =
              start + std::chrono::microseconds(static_cast<uint64_t>(
                          interval_us * static_cast<double>(attempts)));
          std::this_thread::sleep_until(due);
        }
        const std::string& statement =
            rollback_due ? kRollback : script.mix[mix_index];
        const TxnRole role = rollback_due ? TxnRole::kEnd : roles[mix_index];
        if (!rollback_due) mix_index = (mix_index + 1) % script.mix.size();
        rollback_due = false;
        ++attempts;

        Clock::time_point t0 = Clock::now();
        Result<Message> reply = client.Query(statement);
        uint64_t latency =
            static_cast<uint64_t>(std::chrono::duration_cast<
                                      std::chrono::microseconds>(
                                      Clock::now() - t0)
                                      .count());
        if (!reply.ok()) {
          ++local.protocol_errors;
          break;
        }
        switch (reply->type) {
          case MessageType::kResult:
            ++local.ok;
            local.latency_us.push_back(latency);
            break;
          case MessageType::kError:
            if (reply->text.find("MQL0601") != std::string::npos) {
              ++local.conflicts;
            } else {
              ++local.errors;
            }
            local.latency_us.push_back(latency);
            break;
          case MessageType::kBusy:
            ++local.busy;
            break;
          case MessageType::kBye:
            // Server-initiated close (drain, idle timeout): stop cleanly.
            client.Abort();
            break;
          default:
            ++local.protocol_errors;
            break;
        }
        if (role == TxnRole::kBegin) {
          in_txn = reply->type == MessageType::kResult;
        } else if (role == TxnRole::kEnd) {
          in_txn = false;
        } else if (in_txn && reply->type == MessageType::kError) {
          in_txn = false;
          rollback_due = true;
          // Skip the rest of the transaction, its COMMIT included.
          for (size_t skipped = 0; skipped < script.mix.size(); ++skipped) {
            const TxnRole next = roles[mix_index];
            mix_index = (mix_index + 1) % script.mix.size();
            if (next == TxnRole::kEnd) break;
          }
        }
        if (!client.connected()) break;
      }
      (void)client.Close();
      MutexLock lock(shared.mu);
      shared.report.ok += local.ok;
      shared.report.errors += local.errors;
      shared.report.conflicts += local.conflicts;
      shared.report.busy += local.busy;
      shared.report.protocol_errors += local.protocol_errors;
      shared.report.latency_us.insert(shared.report.latency_us.end(),
                                      local.latency_us.begin(),
                                      local.latency_us.end());
    });
  }
  for (std::thread& t : workers) t.join();
  // Workers are joined; the lock below only satisfies the guarded-by
  // contract on the report.
  MutexLock lock(shared.mu);
  shared.report.elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                start)
          .count();

  if (connect_failures.load() == options.connections) {
    return Status::Internal("no loadgen connection could be established");
  }
  return std::move(shared.report);
}

std::string LoadgenReportToBenchJson(const std::string& benchmark_name,
                                     const std::string& op,
                                     const LoadgenReport& report,
                                     size_t connections) {
  struct Row {
    const char* suffix;
    uint64_t value_us;
  };
  const Row rows[] = {
      {"/p50", report.PercentileUs(0.50)},
      {"/p95", report.PercentileUs(0.95)},
      {"/p99", report.PercentileUs(0.99)},
  };
  std::ostringstream out;
  out << "{\"benchmark\": \"" << benchmark_name << "\", \"results\": [";
  bool first = true;
  for (const Row& row : rows) {
    if (!first) out << ", ";
    first = false;
    out << "{\"op\": \"" << op << row.suffix
        << "\", \"ns_per_op\": " << static_cast<double>(row.value_us) * 1e3
        << ", \"iterations\": " << report.latency_us.size()
        << ", \"parallelism\": " << connections << "}";
  }
  out << "]}\n";
  return out.str();
}

std::string FormatLoadgenReport(const LoadgenReport& report,
                                size_t connections) {
  std::ostringstream out;
  out << "loadgen: " << report.total() << " statements over " << connections
      << " connection(s) in " << report.elapsed_s << " s ("
      << static_cast<uint64_t>(report.qps()) << " executed/s)\n"
      << "  ok " << report.ok << ", errors " << report.errors
      << ", conflicts " << report.conflicts << ", busy " << report.busy
      << ", protocol errors " << report.protocol_errors << "\n"
      << "  latency p50 " << report.PercentileUs(0.50) << " us, p95 "
      << report.PercentileUs(0.95) << " us, p99 "
      << report.PercentileUs(0.99) << " us, samples "
      << report.latency_us.size() << "\n";
  return out.str();
}

}  // namespace server
}  // namespace mad
