#ifndef SERVEBENCH_FIXTURE_H_
#define SERVEBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/server.h"
#include "storage/database.h"
#include "storage/durable_database.h"
#include "util/result.h"

namespace servebench {

enum class WorkloadKind { kGeoPoint, kGeoScan, kBomTxn };

mad::Result<WorkloadKind> ParseWorkloadKind(const std::string& name);
const char* WorkloadName(WorkloadKind kind);
/// Closed-loop connections of the workload, capped at `nproc`.
size_t ConnectionCount(WorkloadKind kind, unsigned nproc);

/// Sizes of a generated dataset.
struct DatasetInfo {
  size_t atoms = 0;
  size_t links = 0;
  /// bom_txn: every part name (roots first, then level by level).
  std::vector<std::string> part_names;
  /// bom_txn: part names by BOM level (level 0 = roots).
  std::vector<std::vector<std::string>> levels;
};

/// One served database: the generated dataset with its index, a running
/// MadServer with default ServerOptions over it and, for bom_txn, the
/// DurableDatabase (fresh directory, SYNC OFF, default group commit)
/// underneath. Destruction shuts the server down and removes the directory.
class Fixture {
 public:
  /// `workdir` holds bom_txn's WAL directory.
  static mad::Result<std::unique_ptr<Fixture>> Create(
      WorkloadKind kind, const std::string& workdir);
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  WorkloadKind kind() const { return kind_; }
  mad::Database& db() { return *db_; }
  /// Non-null for bom_txn only.
  mad::DurableDatabase* durable() { return durable_.get(); }
  mad::server::MadServer& server() { return *server_; }
  const mad::server::ServerOptions& options() const { return options_; }
  const DatasetInfo& info() const { return info_; }
  const mad::DurabilityOptions& durability() const { return durability_; }

 private:
  Fixture() = default;

  WorkloadKind kind_ = WorkloadKind::kGeoPoint;
  std::string dir_;
  std::unique_ptr<mad::Database> memory_db_;
  mad::DurabilityOptions durability_;
  std::unique_ptr<mad::DurableDatabase> durable_;
  mad::Database* db_ = nullptr;
  mad::server::ServerOptions options_;
  std::unique_ptr<mad::server::MadServer> server_;
  DatasetInfo info_;
};

/// Statements every session of the workload runs once before its first
/// measured statement (geo: registers the molecule type `map`).
std::vector<std::string> SessionPrelude(WorkloadKind kind);

/// A bom_txn transfer of `amount` cost units from part `from` to part `to`.
struct Transfer {
  std::string from;
  std::string to;
  int64_t amount = 0;
};

/// BEGIN; UPDATE from; UPDATE to; COMMIT — the four statement texts.
std::vector<std::string> TransferStatements(const Transfer& transfer);

/// Sum of part.cost over the database (bom_txn's conserved quantity).
/// Caller-locks contract: hold the shared lock when writers may run.
int64_t TotalPartCost(const mad::Database& db);

/// Drops the derivation-stats footer ("derived N molecules: ... ms"), the
/// one wall-clock line of a rendered result.
std::string StripTimings(const std::string& rendered);

/// The statement mix of one workload with its correctness oracle.
class Workload {
 public:
  /// One statement class of the mix.
  struct Class {
    std::string name;
    /// Distinct statement texts drawn from the seed; empty for "transfer".
    std::vector<std::string> pool;
  };
  /// One closed-loop operation: a pooled statement or a transfer.
  struct Op {
    size_t cls = 0;
    const std::string* text = nullptr;  // null for a transfer
    Transfer transfer;
  };

  /// Draws the statement pools (and bom_txn's part sets) from `seed`.
  static std::unique_ptr<Workload> Make(const Fixture& fixture, uint64_t seed);

  /// Computes the oracle over the fixture's database: an in-process Session
  /// + RenderQueryResult per pooled statement, or for bom_txn the closure
  /// size of each pooled closure statement.
  mad::Status BuildOracle(Fixture& fixture);

  WorkloadKind kind() const { return kind_; }
  size_t connections() const { return connections_; }
  const std::vector<Class>& classes() const { return classes_; }
  bool IsTransfer(size_t cls) const { return classes_[cls].pool.empty(); }

  /// An operation of class `cls` for connection `conn`: a pooled statement,
  /// or a transfer within the connection's part set.
  Op Draw(size_t cls, std::mt19937_64& rng, size_t conn) const;

  /// Checks the RESULT body returned for pooled statement `text`. Geo:
  /// byte equality with the oracle, timing footer excluded. bom_txn: one
  /// closure of the precomputed size.
  bool Check(const std::string& text, const std::string& body) const;

 private:
  Workload() = default;

  WorkloadKind kind_ = WorkloadKind::kGeoPoint;
  size_t connections_ = 1;
  std::vector<Class> classes_;
  std::unordered_map<std::string, std::string> expected_;
  std::unordered_map<std::string, size_t> closure_size_;
  /// bom_txn: disjoint part sets, one per connection, that its transfers
  /// draw from (no two sessions ever write the same part).
  std::vector<std::vector<std::string>> partitions_;
};

/// One connection's operations, derived from the run seed and `stream`
/// only. Classes come in shuffled rounds holding each class once, so every
/// run has the same class mix; `conn` picks the transfer part set.
class KeyStream {
 public:
  KeyStream(const Workload& workload, uint64_t seed, size_t stream,
            size_t conn);

  Workload::Op Next();
  Workload::Op NextOf(size_t cls) { return workload_.Draw(cls, rng_, conn_); }

 private:
  const Workload& workload_;
  size_t conn_;
  std::mt19937_64 rng_;
  std::vector<size_t> round_;
  size_t pos_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_FIXTURE_H_
