#ifndef MAD_MQL_SESSION_H_
#define MAD_MQL_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "molecule/molecule_type.h"
#include "molecule/recursive.h"
#include "molecule/statistics.h"
#include "mql/ast.h"
#include "storage/database.h"
#include "storage/durable_database.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/trace.h"

namespace mad {

struct DerivationOptions;

namespace mql {

struct SelectPlan;

/// The outcome of one executed MQL statement.
struct QueryResult {
  enum class Kind { kMolecules, kRecursive, kCommand };

  Kind kind = Kind::kCommand;
  /// SELECT over a molecule structure: the resulting molecule type.
  std::shared_ptr<const MoleculeType> molecules;
  /// SELECT over a recursive structure.
  std::vector<RecursiveMolecule> recursive;
  RecursiveDescription recursive_description;
  /// With an expansion tail (`part-[composition*]-supplier`):
  /// recursive_components[i] holds one component molecule per closure
  /// member of recursive[i], described by expansion_description.
  std::vector<MoleculeSet> recursive_components;
  std::optional<MoleculeDescription> expansion_description;
  /// Human-readable command outcome ("atom type created", ...).
  std::string message;
  /// Rows/atoms/links affected by DDL/DML.
  size_t affected = 0;
  /// Counters of the derivation run(s) behind a SELECT, when one happened.
  std::optional<DerivationStats> derivation;
  /// Durability counters after OPEN / CHECKPOINT / SET SYNC.
  std::optional<DurabilityStats> durability;
  /// The operator span tree recorded while executing this statement; set by
  /// EXPLAIN ANALYZE and by any statement under `SET TRACE ON`.
  std::shared_ptr<const QueryTrace> trace;
  /// Analyzer warnings that accompanied the statement (errors never get
  /// here: they block execution). CHECK puts its full report here.
  std::vector<Diagnostic> diagnostics;
  /// The database epoch a SELECT read at (its pinned snapshot), or the
  /// epoch a COMMIT published. 0 when the statement touched no epoch.
  uint64_t epoch = 0;
  /// The view a SELECT read at; its molecules render at this view, so the
  /// printed values are the ones its WHERE saw. nullopt for statements that
  /// return no atoms (printers then read the head).
  std::optional<ReadView> view;
  /// The SELECT's epoch pin, shared by every copy of the result: versions
  /// its view sees stay unreclaimed until the last copy is destroyed (or
  /// the session drops the durable database the pin belongs to).
  std::shared_ptr<const EpochPin> pin;
};

/// Execution tuning knobs.
struct SessionOptions {
  /// No-op, kept only for the servebench sources, which still print it.
  /// Each statement runs on the thread that executes it.
  unsigned parallelism = 0;
  /// Per-mutation fsync for databases attached with OPEN; adjustable at
  /// runtime with `SET SYNC ON|OFF`.
  bool sync = false;
  /// Record a QueryTrace for every statement (`SET TRACE ON|OFF`). EXPLAIN
  /// ANALYZE always traces, independent of this option.
  bool trace = false;
  /// Pin one snapshot epoch across statements (`SET PIN SNAPSHOT ON|OFF`):
  /// outside explicit transactions, every read resolves through the pinned
  /// epoch instead of re-pinning per statement, so repeated SELECTs see one
  /// stable state while other sessions commit. The session's own successful
  /// writes advance the pin (stable reads still read their own writes).
  /// The pin blocks version GC until toggled off or the session closes.
  bool pin_snapshot = false;
};

/// An MQL session: parses statements, translates them to the molecule
/// algebra, and executes them against one Database. FROM clauses of the
/// form `name(structure)` register `name` as a molecule type for later
/// reuse (`SELECT ALL FROM name`), realising the dynamic object definition
/// the paper emphasises — complex objects live in queries, not the schema.
class Session {
 public:
  explicit Session(Database* db, SessionOptions options = {});
  ~Session();  // rolls back an open transaction

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses, statically analyzes, and executes one statement. Analyzer
  /// errors block execution (the returned Status carries one line per
  /// error); warnings ride along in QueryResult::diagnostics.
  Result<QueryResult> Execute(const std::string& text);
  /// Execute for an already-parsed statement: analyzes, runs, and attaches
  /// the analyzer's warnings.
  Result<QueryResult> Execute(Statement statement);

  /// Parses a ';'-separated script upfront, then analyzes and executes each
  /// statement in turn, stopping at the first error. Per-statement analysis
  /// (rather than upfront) lets later statements see the catalog effects of
  /// earlier DDL.
  Result<std::vector<QueryResult>> ExecuteScript(const std::string& text);

  /// Executes an already-parsed statement without analyzing it.
  Result<QueryResult> Run(Statement statement);

  /// Registers a molecule-type description under a reusable name.
  Status RegisterMoleculeType(const std::string& name,
                              MoleculeDescription description);
  bool HasRegisteredMoleculeType(const std::string& name) const {
    return registry_.count(name) > 0;
  }

  Database& database() { return *db_; }

  /// The durable database attached with OPEN, or nullptr when the session
  /// runs against the in-memory database it was constructed with.
  DurableDatabase* durable() { return durable_.get(); }

  /// True while a BEGIN is open and uncommitted.
  bool in_transaction() const { return txn_ != nullptr; }

  /// Process-unique id of this session; mad_server's HELLO_OK carries it.
  uint64_t session_id() const { return session_id_; }

 private:
  Result<QueryResult> RunStatement(Statement statement);
  /// Plans and executes a SELECT; with `explain` set, also renders the
  /// executed plan there (EXPLAIN ANALYZE).
  Result<QueryResult> RunSelect(const SelectStatement& stmt,
                                std::string* explain = nullptr);
  Result<QueryResult> ExecutePlan(const SelectPlan& plan,
                                  const ReadView& view);
  /// a over `md` for `roots` (every root when nullopt) with the statement's
  /// `inputs`, on the kept snapshot while it is current at the inputs' view,
  /// else on a fresh engine, which is kept when it derived every root and
  /// read every store through its head (DESIGN.md §6).
  Result<MoleculeSet> Derive(
      const MoleculeDescription& md,
      const std::optional<std::vector<AtomId>>& roots,
      const DerivationOptions& inputs, DerivationStats* stats);
  Result<QueryResult> RunCreateAtomType(CreateAtomTypeStatement stmt);
  Result<QueryResult> RunCreateLinkType(CreateLinkTypeStatement stmt);
  Result<QueryResult> RunInsertAtom(InsertAtomStatement stmt);
  Result<QueryResult> RunInsertLink(InsertLinkStatement stmt);
  Result<QueryResult> RunDelete(DeleteStatement stmt);
  Result<QueryResult> RunUpdate(UpdateStatement stmt);
  Result<QueryResult> RunExplain(ExplainStatement stmt);
  Result<QueryResult> RunShowMetrics(ShowMetricsStatement stmt);
  Result<QueryResult> RunSetOption(SetOptionStatement stmt);
  Result<QueryResult> RunOpen(OpenStatement stmt);
  Result<QueryResult> RunCheckpoint(CheckpointStatement stmt);
  Result<QueryResult> RunCheck(CheckStatement stmt);
  Result<QueryResult> RunBegin(BeginStatement stmt);
  Result<QueryResult> RunCommit(CommitStatement stmt);
  Result<QueryResult> RunRollback(RollbackStatement stmt);
  Result<QueryResult> RunShowTransactions(ShowTransactionsStatement stmt);

  /// The view this session's reads resolve through: the open transaction's
  /// snapshot + own writes, or the current epoch. PRECONDITION: the caller
  /// holds at least a shared lock on db_->mutex().
  ReadView CurrentView() const;
  /// Rejects DDL / OPEN / CHECKPOINT while a transaction is open.
  Status RequireNoTransaction(const char* what) const;
  /// Maps a write-write conflict Status onto its MQL0601 diagnostic line;
  /// other statuses pass through unchanged.
  static Status WrapConflict(Status status);

  // SET option handlers, dispatched over KnownSessionOptions() (sema.h),
  // which is also the source of the "available: ..." error list.
  Result<QueryResult> SetSync(int64_t value);
  Result<QueryResult> SetTrace(int64_t value);
  Result<QueryResult> SetPinSnapshot(int64_t value);

  /// With PIN SNAPSHOT on, (re-)pins the current epoch; the session's own
  /// writes call this so stable reads still observe them.
  void RefreshSnapshotPin();
  /// Releases the pins of results still alive that were read from the
  /// session-owned durable database, before it is closed.
  void ReleaseResultPins();

  Database* db_;
  SessionOptions options_;
  std::map<std::string, MoleculeDescription> registry_;
  /// Owns the durable database after OPEN; db_ then points at its wrapped
  /// Database.
  std::unique_ptr<DurableDatabase> durable_;
  uint64_t session_id_;
  /// The cross-statement read pin of SET PIN SNAPSHOT. Declared after
  /// durable_ so it releases against a still-live database on destruction;
  /// RunOpen releases it by hand before swapping databases.
  EpochPin snapshot_pin_;
  /// The pins of SELECT results read from durable_, tracked so that they
  /// can be released before durable_ closes; empty while the session runs
  /// on a database it does not own, whose owner outlives the results.
  std::vector<std::weak_ptr<EpochPin>> result_pins_;
  /// At most one derivation snapshot kept across SELECTs (DESIGN.md §6).
  /// It is this session's alone and is read or replaced only while the
  /// session runs a SELECT under the reader lock, so it needs no lock of
  /// its own. RunOpen drops it together with the database it describes.
  struct KeptSnapshot;
  std::unique_ptr<KeptSnapshot> kept_snapshot_;
  /// Where this session's SELECTs assemble their molecules, on the kept
  /// snapshot or a fresh engine (DerivationOptions::scratch).
  MoleculeSet derive_scratch_;
  /// The open BEGIN, if any. Declared last: its destructor (auto-rollback)
  /// must run before the database it mutates can go away with durable_.
  std::unique_ptr<Transaction> txn_;
};

}  // namespace mql
}  // namespace mad

#endif  // MAD_MQL_SESSION_H_
