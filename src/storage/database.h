#ifndef MAD_STORAGE_DATABASE_H_
#define MAD_STORAGE_DATABASE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/atom_type.h"
#include "catalog/link_type.h"
#include "storage/index.h"
#include "storage/version.h"
#include "util/result.h"
#include "util/sync.h"

namespace mad {

class Database;
class Transaction;

/// Observer of successful Database mutations, in call order. The durability
/// subsystem (storage/durable_database.h) installs one to mirror every
/// mutation into the write-ahead log; replaying the notifications against a
/// fresh Database reproduces the exact same state.
///
/// Contract:
///  * notified only *after* a mutation succeeded — failed calls are silent;
///  * transactional mutations are notified at COMMIT, in application order;
///    a rolled-back transaction produces no notifications at all;
///  * cascaded side effects that a replayed call would reproduce by itself
///    are NOT re-notified (DeleteAtom's referential link erases), while
///    cascades that run through the public API are (DropAtomType notifies
///    one OnDropLinkType per doomed link type, then OnDropAtomType; the
///    replayed drops are harmlessly idempotent in that order);
///  * listeners must not mutate the database from inside a callback.
class MutationListener {
 public:
  virtual ~MutationListener() = default;

  virtual void OnDefineAtomType(const std::string& aname,
                                const Schema& description) = 0;
  virtual void OnDefineLinkType(const std::string& lname,
                                const std::string& first,
                                const std::string& second,
                                LinkCardinality cardinality) = 0;
  virtual void OnDropAtomType(const std::string& aname) = 0;
  virtual void OnDropLinkType(const std::string& lname) = 0;
  /// Covers both InsertAtom and InsertAtomWithId; `atom` carries the id.
  virtual void OnInsertAtom(const std::string& aname, const Atom& atom) = 0;
  /// `atom` carries the post-update values.
  virtual void OnUpdateAtom(const std::string& aname, const Atom& atom) = 0;
  virtual void OnDeleteAtom(const std::string& aname, AtomId id) = 0;
  virtual void OnInsertLink(const std::string& lname, AtomId first,
                            AtomId second) = 0;
  virtual void OnEraseLink(const std::string& lname, AtomId first,
                           AtomId second) = 0;
  virtual void OnCreateIndex(const std::string& aname,
                             const std::string& attribute) = 0;
  virtual void OnDropIndex(const std::string& aname,
                           const std::string& attribute) = 0;
};

/// Keeps one committed epoch alive: versions visible at the pinned epoch are
/// not reclaimed while the pin exists. Move-only RAII; obtained from
/// Database::PinEpoch() while holding at least a shared lock on
/// Database::mutex() (the lock may be released afterwards — the pin itself
/// keeps the snapshot reclaimable-free, but reading through it again
/// requires re-taking the lock).
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept { *this = std::move(other); }
  EpochPin& operator=(EpochPin&& other) noexcept;
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  ~EpochPin() { Release(); }

  bool pinned() const { return db_ != nullptr; }
  uint64_t epoch() const { return epoch_; }
  /// The pinned read position (no transaction attached).
  ReadView view() const { return ReadView{epoch_, 0}; }

  void Release();

 private:
  friend class Database;
  EpochPin(Database* db, std::multiset<uint64_t>::iterator it, uint64_t epoch)
      : db_(db), it_(it), epoch_(epoch) {}

  Database* db_ = nullptr;
  std::multiset<uint64_t>::iterator it_{};
  uint64_t epoch_ = 0;
};

/// Point-in-time information about the version store, for SHOW TRANSACTIONS
/// and the epoch statistics report.
struct EpochStats {
  uint64_t current_epoch = 0;
  /// Oldest epoch any reader or transaction snapshot has pinned; equals
  /// current_epoch when nothing is pinned.
  uint64_t oldest_pinned = 0;
  size_t pinned_readers = 0;
  size_t active_transactions = 0;
  size_t archived_atoms = 0;
  size_t archived_links = 0;
  /// Lifetime count of versions reclaimed by GC.
  uint64_t reclaimed_versions = 0;
  bool gc_running = false;
};

struct TransactionInfo {
  uint64_t id = 0;
  uint64_t snapshot_epoch = 0;
  size_t ops = 0;
};

/// An open snapshot-isolation transaction (DESIGN.md §11). Created by
/// Database::Begin(); owns a pinned snapshot epoch and a private pending
/// stamp. Mutations made through the Database mutators with this transaction
/// attached are visible only to this transaction until Commit() publishes
/// them under one fresh epoch; Rollback() (or destruction while open)
/// restores the head as if the transaction never ran, and emits no mutation
/// notifications.
///
/// Conflicts follow first-writer-wins: a mutation touching an atom or link
/// that another transaction has pending, or that was committed after this
/// transaction's snapshot, fails immediately with a write-write conflict
/// (Database::IsWriteConflict); Commit() itself therefore always succeeds.
/// A transaction must not outlive its Database.
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  uint64_t snapshot_epoch() const { return snapshot_epoch_; }
  /// The transaction's read position: its snapshot plus its own pending
  /// writes.
  ReadView view() const { return ReadView{snapshot_epoch_, self_stamp_}; }
  bool open() const { return open_; }
  /// Number of occurrence mutations applied so far. Readable from any thread
  /// (SHOW TRANSACTIONS samples open transactions under readers_mu_ while
  /// the owning session keeps mutating under mu_), hence the atomic mirror
  /// of undo_.size() rather than undo_ itself.
  size_t op_count() const { return op_count_.load(std::memory_order_relaxed); }

  /// Publishes every pending mutation under one fresh epoch and fires the
  /// buffered mutation notifications in application order.
  Status Commit();
  /// Reverts every pending mutation; notifications are discarded.
  Status Rollback();

 private:
  friend class Database;
  Transaction(Database* db, uint64_t id, uint64_t snapshot_epoch);

  struct UndoOp {
    enum class Kind { kInsertAtom, kDeleteAtom, kInsertLink, kEraseLink };
    Kind kind;
    std::string type_name;
    AtomId id{};                            // kInsertAtom
    Link link{};                            // kInsertLink
    AtomStore::ArchiveHandle atom_handle{};  // kDeleteAtom
    LinkStore::ArchiveHandle link_handle{};  // kEraseLink
  };

  Database* db_;
  uint64_t id_;
  uint64_t self_stamp_;
  uint64_t snapshot_epoch_;
  EpochPin pin_;
  bool open_ = true;
  /// Mutated only by Database under the exclusive side of Database::mu_;
  /// cross-thread observers read op_count_ instead.
  std::vector<UndoOp> undo_;
  std::atomic<size_t> op_count_{0};
  /// Buffered listener notifications, fired in order at Commit.
  std::vector<std::function<void(MutationListener&)>> notes_;
};

/// A MAD database (Def. 3): DB = <AT, LT>, a set of atom types plus a set of
/// link types over them, together with their occurrences (the atom
/// networks). The Database also owns atom-id assignment and enforces
/// referential integrity:
///
///  * a link may only be inserted between atoms that exist in the link
///    type's two atom types (no dangling links, ever);
///  * deleting an atom removes every link attached to it.
///
/// Algebra operations *enlarge* the database with result atom types and
/// inherited link types (the paper's database domain DB* closure): results
/// are ordinary atom types inside the same Database.
///
/// Concurrency (DESIGN.md §11): occurrence state is multi-versioned by
/// epoch. Mutators take the exclusive side of mutex() internally; they are
/// safe to call from any thread. Plain read accessors are *not* internally
/// locked — a reader that runs concurrently with writers must hold a shared
/// lock on mutex() for the duration of its read (and pin an epoch with
/// PinEpoch() + the *At accessors for a stable snapshot). Single-threaded
/// callers need no locks, pay one uncontended lock per mutation, and read
/// exactly as before. DDL (type and index definition) is not versioned:
/// it takes effect immediately for every reader and is rejected inside
/// transactions at the session layer.
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  // --- Schema definition -------------------------------------------------

  // Mutators are annotated MAD_EXCLUDES(mu_): they take the exclusive side
  // of mutex() internally, so calling one while holding any side of the
  // lock self-deadlocks — the analysis rejects exactly the bug class the
  // session layer's two-phase DML (read under shared lock, release, then
  // mutate) exists to avoid.

  /// Defines a new atom type; the name must be unused by atom types.
  Status DefineAtomType(const std::string& aname, Schema description)
      MAD_EXCLUDES(mu_);

  /// Defines a new link type connecting two existing atom types; the name
  /// must be unused by link types. Reflexive link types (both ends equal)
  /// are allowed, as are multiple link types between the same pair. The
  /// optional cardinality is enforced on every link insertion (the paper's
  /// "extended link-type definition").
  Status DefineLinkType(const std::string& lname, const std::string& first,
                        const std::string& second,
                        LinkCardinality cardinality = LinkCardinality::kManyToMany)
      MAD_EXCLUDES(mu_);

  /// Drops an atom type together with every link type touching it.
  Status DropAtomType(const std::string& aname) MAD_EXCLUDES(mu_);
  Status DropLinkType(const std::string& lname) MAD_EXCLUDES(mu_);

  // --- Occurrence manipulation -------------------------------------------

  /// Inserts an atom with a freshly assigned id; returns the id. With a
  /// transaction attached the insert is pending until its Commit.
  Result<AtomId> InsertAtom(const std::string& aname,
                            std::vector<Value> values,
                            Transaction* txn = nullptr) MAD_EXCLUDES(mu_);

  /// Inserts an atom under a caller-chosen id. Used by the algebra layer to
  /// preserve atom identity across derived atom types (see Def. 9): the same
  /// id may legitimately live in several atom types.
  Status InsertAtomWithId(const std::string& aname, AtomId id,
                          std::vector<Value> values,
                          Transaction* txn = nullptr) MAD_EXCLUDES(mu_);

  /// Replaces the attribute values of an existing atom.
  Status UpdateAtom(const std::string& aname, AtomId id,
                    std::vector<Value> values, Transaction* txn = nullptr)
      MAD_EXCLUDES(mu_);

  /// Deletes an atom and, maintaining referential integrity, every link of
  /// any link type that attaches to it at a role of this atom type.
  Status DeleteAtom(const std::string& aname, AtomId id,
                    Transaction* txn = nullptr) MAD_EXCLUDES(mu_);

  /// Inserts a link; both endpoint atoms must exist in the link type's
  /// respective atom types (referential integrity).
  Status InsertLink(const std::string& lname, AtomId first, AtomId second,
                    Transaction* txn = nullptr) MAD_EXCLUDES(mu_);
  Status EraseLink(const std::string& lname, AtomId first, AtomId second,
                   Transaction* txn = nullptr) MAD_EXCLUDES(mu_);

  // --- Transactions and epochs ---------------------------------------------

  /// Opens a snapshot-isolation transaction at the current epoch. The
  /// returned transaction borrows this database and must be committed,
  /// rolled back, or destroyed before the database dies.
  std::unique_ptr<Transaction> Begin() MAD_EXCLUDES(mu_, readers_mu_);

  /// The newest committed epoch.
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Pins the current epoch against version reclamation. The caller must
  /// hold at least a shared lock on mutex() (this orders the pin against
  /// concurrent commits; see EpochPin) — machine-checked on clang.
  EpochPin PinEpoch() MAD_REQUIRES_SHARED(mu_) MAD_EXCLUDES(readers_mu_);

  /// The storage lock. Mutators take the exclusive side internally; readers
  /// that overlap writers take the shared side around their whole read
  /// (`ReaderLock lock(db.mutex())`). The lock_returned annotation lets the
  /// analysis equate a lock on the returned reference with holding mu_.
  SharedMutex& mutex() const MAD_RETURN_CAPABILITY(mu_) { return mu_; }

  /// True iff `status` is a snapshot write-write conflict (first-writer-wins
  /// rule; see Transaction).
  static bool IsWriteConflict(const Status& status);

  bool HasActiveTransactions() const MAD_EXCLUDES(readers_mu_);
  /// Open transactions ordered by id.
  std::vector<TransactionInfo> ActiveTransactions() const
      MAD_EXCLUDES(readers_mu_);
  EpochStats GetEpochStats() const MAD_EXCLUDES(mu_, readers_mu_);

  /// Reclaims every archived version no pinned reader or future reader can
  /// see; returns the number reclaimed. Runs automatically every few hundred
  /// archive operations and from the background GC thread.
  size_t ReclaimVersions() MAD_EXCLUDES(mu_);

  /// Starts (idempotently) a background thread that runs ReclaimVersions()
  /// every `interval`; StopBackgroundGc joins it. The destructor stops it.
  void StartBackgroundGc(std::chrono::milliseconds interval)
      MAD_EXCLUDES(gc_mu_);
  void StopBackgroundGc() MAD_EXCLUDES(gc_mu_);
  bool gc_running() const {
    return gc_running_.load(std::memory_order_acquire);
  }

  // --- Lookup -------------------------------------------------------------
  // Plain (head) reads carry the *conditional* caller-locks contract of the
  // class comment: hold the shared side of mutex() iff writers may run
  // concurrently; single-threaded callers need no lock. Thread-safety
  // analysis cannot express a conditional requirement, so these bodies
  // enter via mu_.AssertReaderHeld() — a runtime no-op escape hatch that
  // keeps the guarded catalog members checkable everywhere else. The
  // epoch-pinned *At reads below, whose documented contract is
  // unconditional, are REQUIRES_SHARED and machine-checked.

  bool HasAtomType(const std::string& aname) const;
  bool HasLinkType(const std::string& lname) const;

  /// atyp(aname); NotFound if absent.
  Result<const AtomType*> GetAtomType(const std::string& aname) const;
  Result<AtomType*> GetMutableAtomType(const std::string& aname);
  Result<const LinkType*> GetLinkType(const std::string& lname) const;
  Result<LinkType*> GetMutableLinkType(const std::string& lname);

  /// All atom types in definition order.
  std::vector<const AtomType*> atom_types() const;
  /// All link types in definition order.
  std::vector<const LinkType*> link_types() const;
  /// Link types having `aname` at either end, in definition order.
  std::vector<const LinkType*> LinkTypesTouching(const std::string& aname) const;

  /// The atom `id` within atom type `aname`; NotFound if absent.
  Result<const Atom*> GetAtom(const std::string& aname, AtomId id) const;

  /// Value of `attribute` of atom `id` in atom type `aname`.
  Result<Value> GetAttribute(const std::string& aname, AtomId id,
                             const std::string& attribute) const;

  // --- Epoch-pinned lookup ---------------------------------------------------
  // Like the lookups above, but resolving through the version visible at
  // `view`. Caller-locks contract, machine-checked on clang: hold at least
  // a shared lock on mutex() across the whole read.

  Result<const Atom*> GetAtomAt(const std::string& aname, AtomId id,
                                const ReadView& view) const
      MAD_REQUIRES_SHARED(mu_);

  /// Atom ids of `aname` whose `attribute` equals `value` at `view`, in
  /// occurrence order. Uses the index only when the head equals the
  /// snapshot; otherwise falls back to a snapshot scan.
  Result<std::vector<AtomId>> LookupByAttributeAt(const std::string& aname,
                                                  const std::string& attribute,
                                                  const Value& value,
                                                  const ReadView& view) const
      MAD_REQUIRES_SHARED(mu_);

  // --- Secondary indexes -----------------------------------------------------

  /// Builds a hash index over `attribute` of atom type `aname` and keeps it
  /// maintained across occurrence mutations (the index mirrors the head,
  /// pending versions included). Fails if it already exists.
  Status CreateIndex(const std::string& aname, const std::string& attribute)
      MAD_EXCLUDES(mu_);
  Status DropIndex(const std::string& aname, const std::string& attribute)
      MAD_EXCLUDES(mu_);

  /// The index over (aname, attribute), or nullptr.
  const AttributeIndex* FindIndex(const std::string& aname,
                                  const std::string& attribute) const;

  /// Atom ids of `aname` whose `attribute` equals `value` — through the
  /// index when one exists, by scan otherwise. Head (latest-version) read.
  Result<std::vector<AtomId>> LookupByAttribute(const std::string& aname,
                                                const std::string& attribute,
                                                const Value& value) const;

  // --- Id and name generation ----------------------------------------------

  /// Allocates a fresh, never-reused atom id. Escape hatch: the algebra
  /// layer mints ids while building single-threaded derived databases with
  /// no lock held (the conditional contract above), so this asserts rather
  /// than requires the exclusive side.
  AtomId NewAtomId() {
    mu_.AssertHeld();
    return AtomId{++last_atom_id_};
  }

  /// The highest atom id ever assigned (0 on an empty database). Persisted
  /// by the binary checkpoint codec so deleted ids stay retired across
  /// restarts.
  uint64_t last_atom_id() const {
    mu_.AssertReaderHeld();  // escape hatch: checkpoint codec, single-threaded
    return last_atom_id_;
  }

  /// Advances the id counter to at least `id` (never lowers it). Used when
  /// restoring a database whose highest-ever id exceeds every surviving
  /// atom's id.
  void EnsureAtomIdAtLeast(uint64_t id) {
    mu_.AssertHeld();  // escape hatch: crash recovery, single-threaded
    if (id > last_atom_id_) last_atom_id_ = id;
  }

  /// Overwrites the id counter unconditionally — exists ONLY so the
  /// integrity tests can manufacture a corrupted counter and watch
  /// CheckConsistency catch it. Never call outside tests.
  void TestOnlySetLastAtomId(uint64_t id) {
    mu_.AssertHeld();  // escape hatch: tests are single-threaded
    last_atom_id_ = id;
  }

  // --- Mutation observation --------------------------------------------------

  /// Appends a mutation listener; listeners are notified in installation
  /// order. The listener is borrowed and must outlive the database or be
  /// removed before it dies. Installing the same listener twice fails.
  Status AddMutationListener(MutationListener* listener) MAD_EXCLUDES(mu_);
  /// Removes a previously installed listener; NotFound if absent.
  Status RemoveMutationListener(MutationListener* listener) MAD_EXCLUDES(mu_);
  /// Installed listeners in notification order.
  const std::vector<MutationListener*>& mutation_listeners() const {
    mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
    return listeners_;
  }

  /// A type name based on `prefix` that clashes with no existing atom or
  /// link type ("prefix", "prefix@2", "prefix@3", ...).
  std::string UniqueAtomTypeName(const std::string& prefix) const;
  std::string UniqueLinkTypeName(const std::string& prefix) const;

  // --- Invariant checking ------------------------------------------------------

  /// Full-database consistency audit: every link's endpoints exist in the
  /// link type's atom types (no dangling links), every atom's values match
  /// its type's description, every secondary index agrees with its
  /// occurrence, the id counter dominates every live atom id (crash
  /// recovery replays the WAL tail assuming fresh ids never collide), and
  /// every version interval is sane (no committed version with
  /// delete_epoch <= create_epoch — such a version would be visible at no
  /// epoch). Used by the integrity test suite and available to applications
  /// as a debugging aid.
  Status CheckConsistency() const;

  // --- Statistics -----------------------------------------------------------

  size_t atom_type_count() const {
    mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
    return atom_type_order_.size();
  }
  size_t link_type_count() const {
    mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
    return link_type_order_.size();
  }
  size_t total_atom_count() const;
  size_t total_link_count() const;

 private:
  friend class EpochPin;
  friend class Transaction;

  /// Index maintenance hooks called by the occurrence mutators.
  void IndexInsert(const std::string& aname, const Atom& atom)
      MAD_REQUIRES(mu_);
  void IndexErase(const std::string& aname, const Atom& atom)
      MAD_REQUIRES(mu_);

  /// True when a notification would have an audience: a listener is
  /// installed or a transaction buffers it. Call sites guard with this so
  /// the no-listener fast path never copies notification payloads.
  bool ShouldNotify(const Transaction* txn) const MAD_REQUIRES(mu_) {
    return txn != nullptr || !listeners_.empty();
  }
  template <typename Fn>
  void Notify(Transaction* txn, Fn&& fn) MAD_REQUIRES(mu_) {
    if (txn != nullptr) {
      txn->notes_.emplace_back(std::forward<Fn>(fn));
    } else {
      for (MutationListener* listener : listeners_) fn(*listener);
    }
  }

  // Lock-assuming bodies of the public mutators (callers hold mu_
  // exclusively — machine-checked via MAD_REQUIRES). Public entry points
  // wrap these in one WriterLock, avoiding recursive acquisition on
  // internal cascades (DropAtomType -> DropLinkType, InsertAtom ->
  // InsertAtomWithId).
  Status InsertAtomWithIdLocked(const std::string& aname, AtomId id,
                                std::vector<Value> values, Transaction* txn)
      MAD_REQUIRES(mu_);
  Status UpdateAtomLocked(const std::string& aname, AtomId id,
                          std::vector<Value> values, Transaction* txn)
      MAD_REQUIRES(mu_);
  Status DeleteAtomLocked(const std::string& aname, AtomId id,
                          Transaction* txn) MAD_REQUIRES(mu_);
  Status InsertLinkLocked(const std::string& lname, AtomId first,
                          AtomId second, Transaction* txn) MAD_REQUIRES(mu_);
  Status EraseLinkLocked(const std::string& lname, AtomId first, AtomId second,
                         Transaction* txn) MAD_REQUIRES(mu_);
  Status DropLinkTypeLocked(const std::string& lname) MAD_REQUIRES(mu_);

  /// Appends an undo record and refreshes the transaction's cross-thread
  /// op counter (see Transaction::op_count).
  void RecordUndo(Transaction* txn, Transaction::UndoOp op) MAD_REQUIRES(mu_);

  /// The epoch an autocommit mutation stamps (and publishes on success).
  uint64_t NextEpochLocked() MAD_REQUIRES(mu_) {
    return epoch_.load(std::memory_order_relaxed) + 1;
  }
  void PublishEpochLocked(uint64_t epoch) MAD_REQUIRES(mu_) {
    epoch_.store(epoch, std::memory_order_release);
  }

  /// True when some reader or transaction snapshot could still see the
  /// pre-mutation state, so superseded versions must be archived rather
  /// than physically erased.
  bool HasPinnedReaders() const MAD_EXCLUDES(readers_mu_);
  /// Oldest epoch any pin or snapshot still needs; current epoch when none.
  uint64_t ReclaimHorizon() const MAD_EXCLUDES(readers_mu_);
  /// Amortized inline reclamation, called by archiving mutators (mu_ held).
  void MaybeReclaimLocked() MAD_REQUIRES(mu_);
  size_t ReclaimLocked(uint64_t horizon) MAD_REQUIRES(mu_);

  /// Rejects a closed or foreign transaction before any mutation work.
  Status CheckTransaction(const Transaction* txn) const;

  /// First-writer-wins stamp check for mutating the head version of an atom
  /// or link: `create_epoch` is the head version's create stamp. OK, or a
  /// write-write conflict.
  Status CheckHeadWrite(uint64_t create_epoch, const Transaction* txn,
                        const std::string& what) const;
  /// Conflict check for re-inserting an id/link whose previous version is
  /// mid-delete by another transaction (or deleted after `txn`'s snapshot):
  /// committing both would create overlapping version intervals.
  Status CheckArchivedInsert(uint64_t delete_epoch, const Transaction* txn,
                             const std::string& what) const;

  /// Moves a committing transaction's head writes (and their index
  /// entries) behind every other entry, in application order. The WAL logs
  /// them at commit, so recovery re-applies them after every write
  /// committed meanwhile; the head must already be in that order.
  void MoveToCommitOrderLocked(const Transaction& txn) MAD_REQUIRES(mu_);
  void CommitTransaction(Transaction& txn) MAD_EXCLUDES(mu_, readers_mu_);
  void RollbackTransaction(Transaction& txn) MAD_EXCLUDES(mu_, readers_mu_);
  void GcThreadMain(std::chrono::milliseconds interval)
      MAD_EXCLUDES(gc_mu_, mu_);

  std::string name_;

  /// Storage lock: exclusive for mutators, shared for concurrent readers.
  mutable SharedMutex mu_;

  std::map<std::string, std::unique_ptr<AtomType>> atom_types_
      MAD_GUARDED_BY(mu_);
  /// aname -> attribute -> index.
  std::map<std::string, std::map<std::string, std::unique_ptr<AttributeIndex>>>
      indexes_ MAD_GUARDED_BY(mu_);
  std::vector<std::string> atom_type_order_ MAD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LinkType>> link_types_
      MAD_GUARDED_BY(mu_);
  std::vector<std::string> link_type_order_ MAD_GUARDED_BY(mu_);
  uint64_t last_atom_id_ MAD_GUARDED_BY(mu_) = 0;
  std::vector<MutationListener*> listeners_ MAD_GUARDED_BY(mu_);

  /// Newest committed epoch; epoch 0 is the empty database. Deliberately
  /// unguarded: current_epoch() is a lock-free atomic read, and the write
  /// discipline (only under mu_) is captured by PublishEpochLocked's
  /// REQUIRES instead.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> next_txn_id_{1};

  /// Guards pins_ and active_txns_. Ordering: mu_ may be held when taking
  /// readers_mu_, never the other way around.
  mutable Mutex readers_mu_ MAD_ACQUIRED_AFTER(mu_);
  std::multiset<uint64_t> pins_ MAD_GUARDED_BY(readers_mu_);
  std::map<uint64_t, Transaction*> active_txns_ MAD_GUARDED_BY(readers_mu_);

  uint64_t reclaimed_versions_ MAD_GUARDED_BY(mu_) = 0;
  size_t archive_ops_since_gc_ MAD_GUARDED_BY(mu_) = 0;

  Mutex gc_mu_;
  std::thread gc_thread_ MAD_GUARDED_BY(gc_mu_);
  std::atomic<bool> gc_running_{false};
  CondVar gc_cv_;
  bool gc_stop_ MAD_GUARDED_BY(gc_mu_) = false;
};

}  // namespace mad

#endif  // MAD_STORAGE_DATABASE_H_
