#include "storage/database.h"

#include <algorithm>

namespace mad {

namespace {

constexpr char kConflictPrefix[] = "write-write conflict: ";

Status WriteConflict(std::string detail) {
  return Status::ConstraintViolation(kConflictPrefix + std::move(detail));
}

std::string AtomRef(const std::string& aname, AtomId id) {
  return "atom #" + std::to_string(id.value) + " of '" + aname + "'";
}

std::string LinkRef(const std::string& lname, AtomId first, AtomId second) {
  return "link <#" + std::to_string(first.value) + ", #" +
         std::to_string(second.value) + "> of '" + lname + "'";
}

/// Number of archive operations between amortized inline GC sweeps.
constexpr size_t kReclaimEvery = 256;

}  // namespace

// --- EpochPin --------------------------------------------------------------

EpochPin& EpochPin::operator=(EpochPin&& other) noexcept {
  if (this != &other) {
    Release();
    db_ = other.db_;
    it_ = other.it_;
    epoch_ = other.epoch_;
    other.db_ = nullptr;
  }
  return *this;
}

void EpochPin::Release() {
  if (db_ == nullptr) return;
  MutexLock lock(db_->readers_mu_);
  db_->pins_.erase(it_);
  db_ = nullptr;
}

// --- Transaction -----------------------------------------------------------

Transaction::Transaction(Database* db, uint64_t id, uint64_t snapshot_epoch)
    : db_(db),
      id_(id),
      self_stamp_(kPendingEpochBase + id),
      snapshot_epoch_(snapshot_epoch) {}

Transaction::~Transaction() {
  if (open_) db_->RollbackTransaction(*this);
}

Status Transaction::Commit() {
  if (!open_) {
    return Status::InvalidArgument("transaction #" + std::to_string(id_) +
                                   " is no longer open");
  }
  db_->CommitTransaction(*this);
  return Status::OK();
}

Status Transaction::Rollback() {
  if (!open_) {
    return Status::InvalidArgument("transaction #" + std::to_string(id_) +
                                   " is no longer open");
  }
  db_->RollbackTransaction(*this);
  return Status::OK();
}

// --- Database: lifecycle, epochs, transactions -----------------------------

Database::~Database() { StopBackgroundGc(); }

EpochPin Database::PinEpoch() {
  const uint64_t epoch = current_epoch();
  MutexLock lock(readers_mu_);
  return EpochPin(this, pins_.insert(epoch), epoch);
}

std::unique_ptr<Transaction> Database::Begin() {
  // Shared lock: orders the snapshot pin against concurrent commits (a
  // commit holds the exclusive side while it restamps and publishes).
  ReaderLock lock(mu_);
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<Transaction> txn(
      new Transaction(this, id, current_epoch()));
  txn->pin_ = PinEpoch();
  MutexLock rlock(readers_mu_);
  active_txns_[id] = txn.get();
  return txn;
}

bool Database::IsWriteConflict(const Status& status) {
  // Substring rather than prefix: the session layer wraps conflict statuses
  // in their MQL0601 diagnostic line ("error[MQL0601]: write-write
  // conflict: ..."), and the classification must survive that wrapping.
  return status.code() == StatusCode::kConstraintViolation &&
         status.message().find(kConflictPrefix) != std::string::npos;
}

Status Database::CheckTransaction(const Transaction* txn) const {
  if (txn == nullptr) return Status::OK();
  if (txn->db_ != this) {
    return Status::InvalidArgument(
        "transaction belongs to a different database");
  }
  if (!txn->open_) {
    return Status::InvalidArgument("transaction #" +
                                   std::to_string(txn->id_) +
                                   " is no longer open");
  }
  return Status::OK();
}

bool Database::HasActiveTransactions() const {
  MutexLock lock(readers_mu_);
  return !active_txns_.empty();
}

std::vector<TransactionInfo> Database::ActiveTransactions() const {
  MutexLock lock(readers_mu_);
  std::vector<TransactionInfo> out;
  out.reserve(active_txns_.size());
  for (const auto& [id, txn] : active_txns_) {
    // op_count(): the owning session may be mutating undo_ under mu_ right
    // now; the atomic mirror is the race-free way to sample its size.
    out.push_back(TransactionInfo{id, txn->snapshot_epoch_, txn->op_count()});
  }
  return out;
}

EpochStats Database::GetEpochStats() const {
  EpochStats stats;
  ReaderLock lock(mu_);
  stats.current_epoch = current_epoch();
  for (const auto& [aname, at] : atom_types_) {
    stats.archived_atoms += at->occurrence().archived_count();
  }
  for (const auto& [lname, lt] : link_types_) {
    stats.archived_links += lt->occurrence().archived_count();
  }
  stats.reclaimed_versions = reclaimed_versions_;
  {
    MutexLock rlock(readers_mu_);
    stats.pinned_readers = pins_.size();
    stats.active_transactions = active_txns_.size();
    stats.oldest_pinned =
        pins_.empty() ? stats.current_epoch : *pins_.begin();
  }
  stats.gc_running = gc_running();
  return stats;
}

bool Database::HasPinnedReaders() const {
  MutexLock lock(readers_mu_);
  return !pins_.empty();
}

uint64_t Database::ReclaimHorizon() const {
  MutexLock lock(readers_mu_);
  return pins_.empty() ? current_epoch() : *pins_.begin();
}

size_t Database::ReclaimLocked(uint64_t horizon) {
  size_t reclaimed = 0;
  for (const auto& [aname, at] : atom_types_) {
    reclaimed += at->mutable_occurrence().ReclaimBefore(horizon);
  }
  for (const auto& [lname, lt] : link_types_) {
    reclaimed += lt->mutable_occurrence().ReclaimBefore(horizon);
  }
  reclaimed_versions_ += reclaimed;
  return reclaimed;
}

void Database::MaybeReclaimLocked() {
  if (++archive_ops_since_gc_ < kReclaimEvery) return;
  archive_ops_since_gc_ = 0;
  ReclaimLocked(ReclaimHorizon());
}

size_t Database::ReclaimVersions() {
  WriterLock lock(mu_);
  return ReclaimLocked(ReclaimHorizon());
}

void Database::StartBackgroundGc(std::chrono::milliseconds interval) {
  MutexLock lock(gc_mu_);
  if (gc_thread_.joinable()) return;
  gc_stop_ = false;
  gc_thread_ = std::thread(&Database::GcThreadMain, this, interval);
  gc_running_.store(true, std::memory_order_release);
}

void Database::StopBackgroundGc() {
  // Move the thread out under the lock so concurrent Stop calls can't both
  // reach join() on the same std::thread (the second caller sees a
  // non-joinable handle and returns).
  std::thread doomed;
  {
    MutexLock lock(gc_mu_);
    if (!gc_thread_.joinable()) return;
    gc_stop_ = true;
    doomed = std::move(gc_thread_);
  }
  gc_cv_.NotifyAll();
  doomed.join();
  gc_running_.store(false, std::memory_order_release);
}

void Database::GcThreadMain(std::chrono::milliseconds interval) {
  MutexLock lock(gc_mu_);
  while (!gc_stop_) {
    gc_cv_.WaitFor(gc_mu_, interval);
    if (gc_stop_) break;
    // A spurious wakeup reclaims a little early; that is harmless.
    lock.Unlock();
    ReclaimVersions();
    lock.Lock();
  }
}

void Database::RecordUndo(Transaction* txn, Transaction::UndoOp op) {
  txn->undo_.push_back(std::move(op));
  txn->op_count_.store(txn->undo_.size(), std::memory_order_relaxed);
}

// --- Conflict rules --------------------------------------------------------

Status Database::CheckHeadWrite(uint64_t create_epoch, const Transaction* txn,
                                const std::string& what) const {
  if (IsPendingEpoch(create_epoch)) {
    if (txn != nullptr && create_epoch == txn->self_stamp_) return Status::OK();
    return WriteConflict(what +
                         " has an uncommitted change from another transaction");
  }
  if (txn != nullptr && create_epoch > txn->snapshot_epoch_) {
    return WriteConflict(
        what + " was modified after this transaction's snapshot (epoch " +
        std::to_string(create_epoch) + " > " +
        std::to_string(txn->snapshot_epoch_) + ")");
  }
  return Status::OK();
}

Status Database::CheckArchivedInsert(uint64_t delete_epoch,
                                     const Transaction* txn,
                                     const std::string& what) const {
  if (IsPendingEpoch(delete_epoch)) {
    if (txn != nullptr && delete_epoch == txn->self_stamp_) return Status::OK();
    return WriteConflict(what + " is being deleted by another transaction");
  }
  if (txn != nullptr && delete_epoch > txn->snapshot_epoch_) {
    return WriteConflict(what +
                         " was deleted after this transaction's snapshot");
  }
  return Status::OK();
}

// --- Schema definition -----------------------------------------------------

Status Database::DefineAtomType(const std::string& aname, Schema description) {
  WriterLock lock(mu_);
  if (aname.empty()) {
    return Status::InvalidArgument("atom type name must be non-empty");
  }
  if (atom_types_.count(aname) > 0) {
    return Status::AlreadyExists("atom type '" + aname + "' already defined");
  }
  atom_types_[aname] = std::make_unique<AtomType>(aname, std::move(description));
  atom_types_[aname]->mutable_occurrence().BindOwner(&mu_);
  atom_type_order_.push_back(aname);
  for (MutationListener* listener : listeners_) {
    listener->OnDefineAtomType(aname, atom_types_[aname]->description());
  }
  return Status::OK();
}

Status Database::DefineLinkType(const std::string& lname,
                                const std::string& first,
                                const std::string& second,
                                LinkCardinality cardinality) {
  WriterLock lock(mu_);
  if (lname.empty()) {
    return Status::InvalidArgument("link type name must be non-empty");
  }
  if (link_types_.count(lname) > 0) {
    return Status::AlreadyExists("link type '" + lname + "' already defined");
  }
  if (atom_types_.count(first) == 0) {
    return Status::NotFound("link type '" + lname +
                            "' references unknown atom type '" + first + "'");
  }
  if (atom_types_.count(second) == 0) {
    return Status::NotFound("link type '" + lname +
                            "' references unknown atom type '" + second + "'");
  }
  link_types_[lname] =
      std::make_unique<LinkType>(lname, first, second, cardinality);
  link_types_[lname]->mutable_occurrence().BindOwner(&mu_);
  link_type_order_.push_back(lname);
  for (MutationListener* listener : listeners_) {
    listener->OnDefineLinkType(lname, first, second, cardinality);
  }
  return Status::OK();
}

Status Database::DropAtomType(const std::string& aname) {
  WriterLock lock(mu_);
  auto at_it = atom_types_.find(aname);
  if (at_it == atom_types_.end()) {
    return Status::NotFound("atom type '" + aname + "' not defined");
  }
  // Link types may not dangle: drop every link type touching this atom type.
  // DDL is not versioned, so refuse while any doomed occurrence carries an
  // uncommitted change (the pending transaction's undo log would point into
  // freed stores).
  if (at_it->second->occurrence().pending_count() > 0) {
    return Status::ConstraintViolation(
        "atom type '" + aname +
        "' has uncommitted changes; commit or roll back first");
  }
  std::vector<std::string> doomed;
  for (const auto& [lname, lt] : link_types_) {
    if (!lt->Touches(aname)) continue;
    if (lt->occurrence().pending_count() > 0) {
      return Status::ConstraintViolation(
          "link type '" + lname +
          "' has uncommitted changes; commit or roll back first");
    }
    doomed.push_back(lname);
  }
  for (const std::string& lname : doomed) {
    MAD_RETURN_IF_ERROR(DropLinkTypeLocked(lname));
  }
  atom_types_.erase(aname);
  atom_type_order_.erase(
      std::find(atom_type_order_.begin(), atom_type_order_.end(), aname));
  indexes_.erase(aname);
  for (MutationListener* listener : listeners_) {
    listener->OnDropAtomType(aname);
  }
  return Status::OK();
}

Status Database::DropLinkType(const std::string& lname) {
  WriterLock lock(mu_);
  return DropLinkTypeLocked(lname);
}

Status Database::DropLinkTypeLocked(const std::string& lname) {
  auto it = link_types_.find(lname);
  if (it == link_types_.end()) {
    return Status::NotFound("link type '" + lname + "' not defined");
  }
  if (it->second->occurrence().pending_count() > 0) {
    return Status::ConstraintViolation(
        "link type '" + lname +
        "' has uncommitted changes; commit or roll back first");
  }
  link_types_.erase(it);
  link_type_order_.erase(
      std::find(link_type_order_.begin(), link_type_order_.end(), lname));
  for (MutationListener* listener : listeners_) {
    listener->OnDropLinkType(lname);
  }
  return Status::OK();
}

// --- Occurrence manipulation -----------------------------------------------

Result<AtomId> Database::InsertAtom(const std::string& aname,
                                    std::vector<Value> values,
                                    Transaction* txn) {
  MAD_RETURN_IF_ERROR(CheckTransaction(txn));
  WriterLock lock(mu_);
  AtomId id = NewAtomId();
  MAD_RETURN_IF_ERROR(InsertAtomWithIdLocked(aname, id, std::move(values), txn));
  return id;
}

Status Database::InsertAtomWithId(const std::string& aname, AtomId id,
                                  std::vector<Value> values,
                                  Transaction* txn) {
  MAD_RETURN_IF_ERROR(CheckTransaction(txn));
  WriterLock lock(mu_);
  return InsertAtomWithIdLocked(aname, id, std::move(values), txn);
}

Status Database::InsertAtomWithIdLocked(const std::string& aname, AtomId id,
                                        std::vector<Value> values,
                                        Transaction* txn) {
  MAD_ASSIGN_OR_RETURN(AtomType * at, GetMutableAtomType(aname));
  MAD_RETURN_IF_ERROR(at->description().ValidateRow(values));
  AtomStore& store = at->mutable_occurrence();
  if (auto create = store.CreateEpochOf(id); create.has_value()) {
    // Occupied head slot: an invisible occupant is a conflicting writer, a
    // visible one a plain duplicate.
    MAD_RETURN_IF_ERROR(CheckHeadWrite(*create, txn, AtomRef(aname, id)));
    return Status::AlreadyExists("atom #" + std::to_string(id.value) +
                                 " already present");
  }
  // Re-inserting an id whose previous version is mid-delete elsewhere would
  // commit overlapping version intervals. Fresh ids (the common path) are
  // above last_atom_id_ and can have no archived past.
  if (id.value <= last_atom_id_ && store.archived_count() > 0) {
    for (const auto& archived : store.archived()) {
      if (archived.atom.id != id) continue;
      MAD_RETURN_IF_ERROR(
          CheckArchivedInsert(archived.delete_epoch, txn, AtomRef(aname, id)));
    }
  }
  // Keep the id counter ahead of any caller-chosen id so fresh ids never
  // collide with identities preserved from other atom types.
  last_atom_id_ = std::max(last_atom_id_, id.value);
  const uint64_t stamp =
      txn != nullptr ? txn->self_stamp_ : NextEpochLocked();
  Atom atom{id, std::move(values)};
  MAD_RETURN_IF_ERROR(store.Insert(atom, stamp));
  IndexInsert(aname, atom);
  if (txn != nullptr) {
    Transaction::UndoOp op;
    op.kind = Transaction::UndoOp::Kind::kInsertAtom;
    op.type_name = aname;
    op.id = id;
    RecordUndo(txn, std::move(op));
  }
  if (ShouldNotify(txn)) {
    Notify(txn, [aname, atom](MutationListener& listener) {
      listener.OnInsertAtom(aname, atom);
    });
  }
  if (txn == nullptr) PublishEpochLocked(stamp);
  return Status::OK();
}

Status Database::UpdateAtom(const std::string& aname, AtomId id,
                            std::vector<Value> values, Transaction* txn) {
  MAD_RETURN_IF_ERROR(CheckTransaction(txn));
  WriterLock lock(mu_);
  return UpdateAtomLocked(aname, id, std::move(values), txn);
}

Status Database::UpdateAtomLocked(const std::string& aname, AtomId id,
                                  std::vector<Value> values,
                                  Transaction* txn) {
  MAD_ASSIGN_OR_RETURN(AtomType * at, GetMutableAtomType(aname));
  MAD_RETURN_IF_ERROR(at->description().ValidateRow(values));
  AtomStore& store = at->mutable_occurrence();
  const Atom* existing = store.Find(id);
  if (existing == nullptr) {
    if (txn != nullptr && store.FindVersionAt(id, txn->view()) != nullptr) {
      return WriteConflict(AtomRef(aname, id) +
                           " was deleted by a concurrent transaction");
    }
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not in atom type '" + aname + "'");
  }
  MAD_RETURN_IF_ERROR(
      CheckHeadWrite(*store.CreateEpochOf(id), txn, AtomRef(aname, id)));
  const bool versioned = txn != nullptr || HasPinnedReaders();
  const uint64_t stamp =
      txn != nullptr ? txn->self_stamp_ : NextEpochLocked();
  IndexErase(aname, *existing);
  if (versioned) {
    MAD_ASSIGN_OR_RETURN(AtomStore::ArchiveHandle handle,
                         store.Archive(id, stamp));
    if (txn != nullptr) {
      Transaction::UndoOp op;
      op.kind = Transaction::UndoOp::Kind::kDeleteAtom;
      op.type_name = aname;
      op.atom_handle = handle;
      RecordUndo(txn, std::move(op));
    }
  } else {
    MAD_RETURN_IF_ERROR(store.Erase(id));
  }
  Atom atom{id, std::move(values)};
  MAD_RETURN_IF_ERROR(store.Insert(atom, stamp));
  IndexInsert(aname, atom);
  if (txn != nullptr) {
    Transaction::UndoOp op;
    op.kind = Transaction::UndoOp::Kind::kInsertAtom;
    op.type_name = aname;
    op.id = id;
    RecordUndo(txn, std::move(op));
  }
  if (ShouldNotify(txn)) {
    Notify(txn, [aname, atom](MutationListener& listener) {
      listener.OnUpdateAtom(aname, atom);
    });
  }
  if (txn == nullptr) {
    PublishEpochLocked(stamp);
    if (versioned) MaybeReclaimLocked();
  }
  return Status::OK();
}

Status Database::DeleteAtom(const std::string& aname, AtomId id,
                            Transaction* txn) {
  MAD_RETURN_IF_ERROR(CheckTransaction(txn));
  WriterLock lock(mu_);
  return DeleteAtomLocked(aname, id, txn);
}

Status Database::DeleteAtomLocked(const std::string& aname, AtomId id,
                                  Transaction* txn) {
  MAD_ASSIGN_OR_RETURN(AtomType * at, GetMutableAtomType(aname));
  AtomStore& store = at->mutable_occurrence();
  const Atom* atom = store.Find(id);
  if (atom == nullptr) {
    if (txn != nullptr && store.FindVersionAt(id, txn->view()) != nullptr) {
      return WriteConflict(AtomRef(aname, id) +
                           " was deleted by a concurrent transaction");
    }
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not present");
  }
  MAD_RETURN_IF_ERROR(
      CheckHeadWrite(*store.CreateEpochOf(id), txn, AtomRef(aname, id)));
  // Referential integrity: every link attached to the deleted atom through a
  // link type touching this atom type dies with it. Collect them role-aware
  // (the same id may legitimately live in several atom types) and check
  // conflicts up front so a refused delete mutates nothing.
  struct DoomedLink {
    LinkType* lt;
    Link link;
  };
  std::vector<DoomedLink> doomed;
  for (const auto& lname : link_type_order_) {
    LinkType* lt = link_types_[lname].get();
    if (!lt->Touches(aname)) continue;
    const LinkStore& links = lt->occurrence();
    if (lt->first_atom_type() == aname) {
      for (AtomId partner : links.Partners(id, LinkDirection::kForward)) {
        doomed.push_back(DoomedLink{lt, Link{id, partner}});
      }
    }
    if (lt->second_atom_type() == aname) {
      for (AtomId partner : links.Partners(id, LinkDirection::kBackward)) {
        // A reflexive self-link showed up in the forward pass already.
        if (lt->first_atom_type() == aname && partner == id) continue;
        doomed.push_back(DoomedLink{lt, Link{partner, id}});
      }
    }
  }
  for (const DoomedLink& d : doomed) {
    MAD_RETURN_IF_ERROR(CheckHeadWrite(
        *d.lt->occurrence().CreateEpochOf(d.link.first, d.link.second), txn,
        LinkRef(d.lt->name(), d.link.first, d.link.second)));
  }
  const bool versioned = txn != nullptr || HasPinnedReaders();
  const uint64_t stamp =
      txn != nullptr ? txn->self_stamp_ : NextEpochLocked();
  // Cascade the links first and the atom last: rollback walks the undo log
  // in reverse, resurrecting the atom before its links.
  for (const DoomedLink& d : doomed) {
    LinkStore& links = d.lt->mutable_occurrence();
    if (versioned) {
      // Direct occurrence erases: a replayed DeleteAtom cascades these
      // identically, so they are deliberately not re-notified.
      MAD_ASSIGN_OR_RETURN(LinkStore::ArchiveHandle handle,
                           links.Archive(d.link.first, d.link.second, stamp));
      if (txn != nullptr) {
        Transaction::UndoOp op;
        op.kind = Transaction::UndoOp::Kind::kEraseLink;
        op.type_name = d.lt->name();
        op.link_handle = handle;
        RecordUndo(txn, std::move(op));
      }
    } else {
      MAD_RETURN_IF_ERROR(links.Erase(d.link.first, d.link.second));
    }
  }
  IndexErase(aname, *atom);
  if (versioned) {
    MAD_ASSIGN_OR_RETURN(AtomStore::ArchiveHandle handle,
                         store.Archive(id, stamp));
    if (txn != nullptr) {
      Transaction::UndoOp op;
      op.kind = Transaction::UndoOp::Kind::kDeleteAtom;
      op.type_name = aname;
      op.atom_handle = handle;
      RecordUndo(txn, std::move(op));
    }
  } else {
    MAD_RETURN_IF_ERROR(store.Erase(id));
  }
  if (ShouldNotify(txn)) {
    Notify(txn, [aname, id](MutationListener& listener) {
      listener.OnDeleteAtom(aname, id);
    });
  }
  if (txn == nullptr) {
    PublishEpochLocked(stamp);
    if (versioned) MaybeReclaimLocked();
  }
  return Status::OK();
}

Status Database::InsertLink(const std::string& lname, AtomId first,
                            AtomId second, Transaction* txn) {
  MAD_RETURN_IF_ERROR(CheckTransaction(txn));
  WriterLock lock(mu_);
  return InsertLinkLocked(lname, first, second, txn);
}

Status Database::InsertLinkLocked(const std::string& lname, AtomId first,
                                  AtomId second, Transaction* txn) {
  MAD_ASSIGN_OR_RETURN(LinkType * lt, GetMutableLinkType(lname));
  MAD_ASSIGN_OR_RETURN(const AtomType* at1, GetAtomType(lt->first_atom_type()));
  MAD_ASSIGN_OR_RETURN(const AtomType* at2,
                       GetAtomType(lt->second_atom_type()));
  const ReadView view =
      txn != nullptr ? txn->view() : ReadView{current_epoch(), 0};
  if (!at1->occurrence().ContainsAt(first, view)) {
    return Status::ConstraintViolation(
        "link '" + lname + "': atom #" + std::to_string(first.value) +
        " is not in atom type '" + lt->first_atom_type() + "'");
  }
  if (!at2->occurrence().ContainsAt(second, view)) {
    return Status::ConstraintViolation(
        "link '" + lname + "': atom #" + std::to_string(second.value) +
        " is not in atom type '" + lt->second_atom_type() + "'");
  }
  LinkStore& links = lt->mutable_occurrence();
  if (auto create = links.CreateEpochOf(first, second); create.has_value()) {
    MAD_RETURN_IF_ERROR(
        CheckHeadWrite(*create, txn, LinkRef(lname, first, second)));
    return Status::AlreadyExists("link <#" + std::to_string(first.value) +
                                 ", #" + std::to_string(second.value) +
                                 "> already present");
  }
  // Re-inserting a link another transaction is erasing would commit
  // overlapping version intervals.
  if (links.archived_count() > 0) {
    for (const auto& archived : links.archived()) {
      if (archived.link.first != first || archived.link.second != second) {
        continue;
      }
      MAD_RETURN_IF_ERROR(CheckArchivedInsert(archived.delete_epoch, txn,
                                              LinkRef(lname, first, second)));
    }
  }
  // Cardinality restriction of the extended link-type definition, enforced
  // against the head (pending partners of concurrent transactions count:
  // whichever commit loses would otherwise break the bound).
  LinkCardinality cardinality = lt->cardinality();
  bool first_bounded = cardinality == LinkCardinality::kOneToOne ||
                       cardinality == LinkCardinality::kManyToOne;
  bool second_bounded = cardinality == LinkCardinality::kOneToOne ||
                        cardinality == LinkCardinality::kOneToMany;
  if (first_bounded &&
      !links.Partners(first, LinkDirection::kForward).empty()) {
    return Status::ConstraintViolation(
        "link '" + lname + "' (" + LinkCardinalityName(cardinality) +
        "): atom #" + std::to_string(first.value) +
        " already has a partner");
  }
  if (second_bounded &&
      !links.Partners(second, LinkDirection::kBackward).empty()) {
    return Status::ConstraintViolation(
        "link '" + lname + "' (" + LinkCardinalityName(cardinality) +
        "): atom #" + std::to_string(second.value) +
        " already has a partner");
  }
  const uint64_t stamp =
      txn != nullptr ? txn->self_stamp_ : NextEpochLocked();
  MAD_RETURN_IF_ERROR(links.Insert(first, second, stamp));
  if (txn != nullptr) {
    Transaction::UndoOp op;
    op.kind = Transaction::UndoOp::Kind::kInsertLink;
    op.type_name = lname;
    op.link = Link{first, second};
    RecordUndo(txn, std::move(op));
  }
  if (ShouldNotify(txn)) {
    Notify(txn, [lname, first, second](MutationListener& listener) {
      listener.OnInsertLink(lname, first, second);
    });
  }
  if (txn == nullptr) PublishEpochLocked(stamp);
  return Status::OK();
}

Status Database::EraseLink(const std::string& lname, AtomId first,
                           AtomId second, Transaction* txn) {
  MAD_RETURN_IF_ERROR(CheckTransaction(txn));
  WriterLock lock(mu_);
  return EraseLinkLocked(lname, first, second, txn);
}

Status Database::EraseLinkLocked(const std::string& lname, AtomId first,
                                 AtomId second, Transaction* txn) {
  MAD_ASSIGN_OR_RETURN(LinkType * lt, GetMutableLinkType(lname));
  LinkStore& links = lt->mutable_occurrence();
  if (!links.Contains(first, second)) {
    if (txn != nullptr && links.ContainsAt(first, second, txn->view())) {
      return WriteConflict(LinkRef(lname, first, second) +
                           " was erased by a concurrent transaction");
    }
    return Status::NotFound("link <#" + std::to_string(first.value) + ", #" +
                            std::to_string(second.value) + "> not present");
  }
  MAD_RETURN_IF_ERROR(CheckHeadWrite(*links.CreateEpochOf(first, second), txn,
                                     LinkRef(lname, first, second)));
  const bool versioned = txn != nullptr || HasPinnedReaders();
  const uint64_t stamp =
      txn != nullptr ? txn->self_stamp_ : NextEpochLocked();
  if (versioned) {
    MAD_ASSIGN_OR_RETURN(LinkStore::ArchiveHandle handle,
                         links.Archive(first, second, stamp));
    if (txn != nullptr) {
      Transaction::UndoOp op;
      op.kind = Transaction::UndoOp::Kind::kEraseLink;
      op.type_name = lname;
      op.link_handle = handle;
      RecordUndo(txn, std::move(op));
    }
  } else {
    MAD_RETURN_IF_ERROR(links.Erase(first, second));
  }
  if (ShouldNotify(txn)) {
    Notify(txn, [lname, first, second](MutationListener& listener) {
      listener.OnEraseLink(lname, first, second);
    });
  }
  if (txn == nullptr) {
    PublishEpochLocked(stamp);
    if (versioned) MaybeReclaimLocked();
  }
  return Status::OK();
}

// --- Commit / rollback -----------------------------------------------------

void Database::MoveToCommitOrderLocked(const Transaction& txn) {
  std::map<std::string, std::vector<AtomId>> atoms;
  std::map<std::string, std::vector<Link>> links;
  for (const Transaction::UndoOp& op : txn.undo_) {
    if (op.kind == Transaction::UndoOp::Kind::kInsertAtom) {
      atoms[op.type_name].push_back(op.id);
    } else if (op.kind == Transaction::UndoOp::Kind::kInsertLink) {
      links[op.type_name].push_back(op.link);
    }
  }
  // Each listed id or link is either gone from the head (deleted later in
  // this transaction; MoveToEnd skips it) or still carries this
  // transaction's pending stamp: first-writer-wins keeps every other
  // writer off it until this commit.
  for (const auto& [aname, ids] : atoms) {
    AtomStore& store = atom_types_.at(aname)->mutable_occurrence();
    for (AtomId id : store.MoveToEnd(ids)) {
      const Atom& atom = *store.Find(id);
      IndexErase(aname, atom);
      IndexInsert(aname, atom);
    }
  }
  for (const auto& [lname, pairs] : links) {
    link_types_.at(lname)->mutable_occurrence().MoveToEnd(pairs);
  }
}

void Database::CommitTransaction(Transaction& txn) {
  WriterLock lock(mu_);
  txn.open_ = false;
  if (!txn.undo_.empty()) {
    const uint64_t commit_epoch = NextEpochLocked();
    MoveToCommitOrderLocked(txn);
    for (const Transaction::UndoOp& op : txn.undo_) {
      switch (op.kind) {
        case Transaction::UndoOp::Kind::kInsertAtom: {
          // No-op if this insert was superseded later in the same
          // transaction (the archived entry then carries both stamps).
          atom_types_.at(op.type_name)
              ->mutable_occurrence()
              .RestampCreate(op.id, commit_epoch);
          break;
        }
        case Transaction::UndoOp::Kind::kDeleteAtom: {
          AtomStore& store =
              atom_types_.at(op.type_name)->mutable_occurrence();
          store.RestampArchived(op.atom_handle, commit_epoch);
          if (op.atom_handle->create_epoch == op.atom_handle->delete_epoch) {
            // Created and deleted inside this transaction: exists at no
            // epoch.
            store.DropArchived(op.atom_handle);
          }
          break;
        }
        case Transaction::UndoOp::Kind::kInsertLink: {
          link_types_.at(op.type_name)
              ->mutable_occurrence()
              .RestampCreate(op.link.first, op.link.second, commit_epoch);
          break;
        }
        case Transaction::UndoOp::Kind::kEraseLink: {
          LinkStore& links =
              link_types_.at(op.type_name)->mutable_occurrence();
          links.RestampArchived(op.link_handle, commit_epoch);
          if (op.link_handle->create_epoch == op.link_handle->delete_epoch) {
            links.DropArchived(op.link_handle);
          }
          break;
        }
      }
    }
    PublishEpochLocked(commit_epoch);
    // Fire the buffered notifications in application order, each to every
    // listener in installation order — the same interleaving an autocommit
    // run of the same statements would have produced.
    for (const auto& note : txn.notes_) {
      for (MutationListener* listener : listeners_) note(*listener);
    }
    MaybeReclaimLocked();
  }
  txn.undo_.clear();
  txn.notes_.clear();
  txn.op_count_.store(0, std::memory_order_relaxed);
  lock.Unlock();
  {
    MutexLock rlock(readers_mu_);
    active_txns_.erase(txn.id_);
  }
  txn.pin_.Release();
}

void Database::RollbackTransaction(Transaction& txn) {
  WriterLock lock(mu_);
  txn.open_ = false;
  for (auto it = txn.undo_.rbegin(); it != txn.undo_.rend(); ++it) {
    switch (it->kind) {
      case Transaction::UndoOp::Kind::kInsertAtom: {
        AtomStore& store = atom_types_.at(it->type_name)->mutable_occurrence();
        if (const Atom* atom = store.Find(it->id); atom != nullptr) {
          IndexErase(it->type_name, *atom);
        }
        Status s = store.Erase(it->id);
        (void)s;
        break;
      }
      case Transaction::UndoOp::Kind::kDeleteAtom: {
        AtomStore& store = atom_types_.at(it->type_name)->mutable_occurrence();
        const AtomId id = it->atom_handle->atom.id;
        Status s = store.Resurrect(it->atom_handle);
        (void)s;
        // Resurrect restores the atom's head position; its index entries
        // go back to the same place, not to the end of their buckets.
        const Atom* atom = store.Find(id);
        auto type_it = indexes_.find(it->type_name);
        if (atom != nullptr && type_it != indexes_.end()) {
          for (auto& [attr, index] : type_it->second) {
            index->InsertInHeadOrder(*atom, store);
          }
        }
        break;
      }
      case Transaction::UndoOp::Kind::kInsertLink: {
        Status s = link_types_.at(it->type_name)
                       ->mutable_occurrence()
                       .Erase(it->link.first, it->link.second);
        (void)s;
        break;
      }
      case Transaction::UndoOp::Kind::kEraseLink: {
        Status s = link_types_.at(it->type_name)
                       ->mutable_occurrence()
                       .Resurrect(it->link_handle);
        (void)s;
        break;
      }
    }
  }
  txn.undo_.clear();
  txn.notes_.clear();
  txn.op_count_.store(0, std::memory_order_relaxed);
  lock.Unlock();
  {
    MutexLock rlock(readers_mu_);
    active_txns_.erase(txn.id_);
  }
  txn.pin_.Release();
}

// --- Lookup ----------------------------------------------------------------

bool Database::HasAtomType(const std::string& aname) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  return atom_types_.count(aname) > 0;
}

bool Database::HasLinkType(const std::string& lname) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  return link_types_.count(lname) > 0;
}

Result<const AtomType*> Database::GetAtomType(const std::string& aname) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  auto it = atom_types_.find(aname);
  if (it == atom_types_.end()) {
    return Status::NotFound("atom type '" + aname + "' not defined");
  }
  return static_cast<const AtomType*>(it->second.get());
}

Result<AtomType*> Database::GetMutableAtomType(const std::string& aname) {
  mu_.AssertHeld();  // escape hatch: mutators hold mu_; codec is single-threaded
  auto it = atom_types_.find(aname);
  if (it == atom_types_.end()) {
    return Status::NotFound("atom type '" + aname + "' not defined");
  }
  return it->second.get();
}

Result<const LinkType*> Database::GetLinkType(const std::string& lname) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  auto it = link_types_.find(lname);
  if (it == link_types_.end()) {
    return Status::NotFound("link type '" + lname + "' not defined");
  }
  return static_cast<const LinkType*>(it->second.get());
}

Result<LinkType*> Database::GetMutableLinkType(const std::string& lname) {
  mu_.AssertHeld();  // escape hatch: mutators hold mu_; codec is single-threaded
  auto it = link_types_.find(lname);
  if (it == link_types_.end()) {
    return Status::NotFound("link type '" + lname + "' not defined");
  }
  return it->second.get();
}

std::vector<const AtomType*> Database::atom_types() const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  std::vector<const AtomType*> out;
  out.reserve(atom_type_order_.size());
  for (const std::string& aname : atom_type_order_) {
    out.push_back(atom_types_.at(aname).get());
  }
  return out;
}

std::vector<const LinkType*> Database::link_types() const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  std::vector<const LinkType*> out;
  out.reserve(link_type_order_.size());
  for (const std::string& lname : link_type_order_) {
    out.push_back(link_types_.at(lname).get());
  }
  return out;
}

std::vector<const LinkType*> Database::LinkTypesTouching(
    const std::string& aname) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  std::vector<const LinkType*> out;
  for (const std::string& lname : link_type_order_) {
    const LinkType* lt = link_types_.at(lname).get();
    if (lt->Touches(aname)) out.push_back(lt);
  }
  return out;
}

Result<const Atom*> Database::GetAtom(const std::string& aname,
                                      AtomId id) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  MAD_ASSIGN_OR_RETURN(const AtomType* at, GetAtomType(aname));
  const Atom* atom = at->occurrence().Find(id);
  if (atom == nullptr) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not in atom type '" + aname + "'");
  }
  return atom;
}

Result<Value> Database::GetAttribute(const std::string& aname, AtomId id,
                                     const std::string& attribute) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  MAD_ASSIGN_OR_RETURN(const AtomType* at, GetAtomType(aname));
  MAD_ASSIGN_OR_RETURN(size_t idx, at->description().IndexOf(attribute));
  const Atom* atom = at->occurrence().Find(id);
  if (atom == nullptr) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not in atom type '" + aname + "'");
  }
  return atom->values[idx];
}

Result<const Atom*> Database::GetAtomAt(const std::string& aname, AtomId id,
                                        const ReadView& view) const {
  MAD_ASSIGN_OR_RETURN(const AtomType* at, GetAtomType(aname));
  const Atom* atom = at->occurrence().FindVersionAt(id, view);
  if (atom == nullptr) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not in atom type '" + aname + "'");
  }
  return atom;
}

Result<std::vector<AtomId>> Database::LookupByAttributeAt(
    const std::string& aname, const std::string& attribute, const Value& value,
    const ReadView& view) const {
  MAD_ASSIGN_OR_RETURN(const AtomType* at, GetAtomType(aname));
  MAD_ASSIGN_OR_RETURN(size_t idx, at->description().IndexOf(attribute));
  const AtomStore& store = at->occurrence();
  if (store.HeadVisibleAt(view)) {
    if (const AttributeIndex* index = FindIndex(aname, attribute)) {
      return index->Lookup(value);
    }
  }
  // The head is not the snapshot (or no index exists): visibility-filtered
  // scan in snapshot order.
  std::vector<AtomId> matches;
  for (const Atom* atom : store.SnapshotAt(view)) {
    if (atom->values[idx] == value) matches.push_back(atom->id);
  }
  return matches;
}

Status Database::CreateIndex(const std::string& aname,
                             const std::string& attribute) {
  WriterLock lock(mu_);
  MAD_ASSIGN_OR_RETURN(const AtomType* at, GetAtomType(aname));
  MAD_ASSIGN_OR_RETURN(size_t value_index, at->description().IndexOf(attribute));
  auto& per_type = indexes_[aname];
  if (per_type.count(attribute) > 0) {
    return Status::AlreadyExists("index on " + aname + "." + attribute +
                                 " already exists");
  }
  auto index =
      std::make_unique<AttributeIndex>(aname, attribute, value_index);
  for (const Atom& atom : at->occurrence().atoms()) index->Insert(atom);
  per_type[attribute] = std::move(index);
  for (MutationListener* listener : listeners_) {
    listener->OnCreateIndex(aname, attribute);
  }
  return Status::OK();
}

Status Database::DropIndex(const std::string& aname,
                           const std::string& attribute) {
  WriterLock lock(mu_);
  auto type_it = indexes_.find(aname);
  if (type_it == indexes_.end() || type_it->second.erase(attribute) == 0) {
    return Status::NotFound("no index on " + aname + "." + attribute);
  }
  if (type_it->second.empty()) indexes_.erase(type_it);
  for (MutationListener* listener : listeners_) {
    listener->OnDropIndex(aname, attribute);
  }
  return Status::OK();
}

const AttributeIndex* Database::FindIndex(const std::string& aname,
                                          const std::string& attribute) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  auto type_it = indexes_.find(aname);
  if (type_it == indexes_.end()) return nullptr;
  auto attr_it = type_it->second.find(attribute);
  if (attr_it == type_it->second.end()) return nullptr;
  return attr_it->second.get();
}

Result<std::vector<AtomId>> Database::LookupByAttribute(
    const std::string& aname, const std::string& attribute,
    const Value& value) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  if (const AttributeIndex* index = FindIndex(aname, attribute)) {
    return index->Lookup(value);
  }
  MAD_ASSIGN_OR_RETURN(const AtomType* at, GetAtomType(aname));
  MAD_ASSIGN_OR_RETURN(size_t idx, at->description().IndexOf(attribute));
  std::vector<AtomId> matches;
  for (const Atom& atom : at->occurrence().atoms()) {
    if (atom.values[idx] == value) matches.push_back(atom.id);
  }
  return matches;
}

void Database::IndexInsert(const std::string& aname, const Atom& atom) {
  auto type_it = indexes_.find(aname);
  if (type_it == indexes_.end()) return;
  for (auto& [attr, index] : type_it->second) index->Insert(atom);
}

void Database::IndexErase(const std::string& aname, const Atom& atom) {
  auto type_it = indexes_.find(aname);
  if (type_it == indexes_.end()) return;
  for (auto& [attr, index] : type_it->second) index->Erase(atom);
}

// --- Mutation observation --------------------------------------------------

Status Database::AddMutationListener(MutationListener* listener) {
  if (listener == nullptr) {
    return Status::InvalidArgument("mutation listener must be non-null");
  }
  WriterLock lock(mu_);
  if (std::find(listeners_.begin(), listeners_.end(), listener) !=
      listeners_.end()) {
    return Status::AlreadyExists("mutation listener already installed");
  }
  listeners_.push_back(listener);
  return Status::OK();
}

Status Database::RemoveMutationListener(MutationListener* listener) {
  WriterLock lock(mu_);
  auto it = std::find(listeners_.begin(), listeners_.end(), listener);
  if (it == listeners_.end()) {
    return Status::NotFound("mutation listener not installed");
  }
  listeners_.erase(it);
  return Status::OK();
}

std::string Database::UniqueAtomTypeName(const std::string& prefix) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  if (atom_types_.count(prefix) == 0) return prefix;
  for (int i = 2;; ++i) {
    std::string candidate = prefix + "@" + std::to_string(i);
    if (atom_types_.count(candidate) == 0) return candidate;
  }
}

std::string Database::UniqueLinkTypeName(const std::string& prefix) const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  if (link_types_.count(prefix) == 0) return prefix;
  for (int i = 2;; ++i) {
    std::string candidate = prefix + "@" + std::to_string(i);
    if (link_types_.count(candidate) == 0) return candidate;
  }
}

// --- Invariant checking ----------------------------------------------------

Status Database::CheckConsistency() const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  // Atom values match their descriptions.
  for (const auto& [aname, at] : atom_types_) {
    for (const Atom& atom : at->occurrence().atoms()) {
      Status s = at->description().ValidateRow(atom.values);
      if (!s.ok()) {
        return Status::Internal("atom type '" + aname + "': " + s.message());
      }
    }
  }
  // The column-major mirror agrees with the row-major head cell-for-cell
  // (DESIGN.md §13) — batch kernels read the columns, so divergence here
  // would silently change query results.
  for (const auto& [aname, at] : atom_types_) {
    Status s = at->occurrence().columns().AuditAgainstRows(
        at->occurrence().atoms());
    if (!s.ok()) {
      return Status::Internal("atom type '" + aname + "': " + s.message());
    }
  }
  // The id counter dominates every atom id ever stored (live or archived).
  // Crash recovery replays the WAL tail onto a checkpoint assuming fresh
  // ids never collide with ids already handed out.
  for (const auto& [aname, at] : atom_types_) {
    for (const Atom& atom : at->occurrence().atoms()) {
      if (atom.id.value > last_atom_id_) {
        return Status::Internal(
            "atom type '" + aname + "': atom #" +
            std::to_string(atom.id.value) +
            " exceeds last_atom_id (" + std::to_string(last_atom_id_) +
            "); fresh ids could collide");
      }
    }
    for (const auto& archived : at->occurrence().archived()) {
      if (archived.atom.id.value > last_atom_id_) {
        return Status::Internal(
            "atom type '" + aname + "': archived atom #" +
            std::to_string(archived.atom.id.value) +
            " exceeds last_atom_id (" + std::to_string(last_atom_id_) + ")");
      }
    }
  }
  // Epoch-stamp sanity: no committed stamp beyond the current epoch, and no
  // committed version whose interval is empty (it would be visible at no
  // epoch — commit is supposed to drop those).
  const uint64_t current = current_epoch();
  for (const auto& [aname, at] : atom_types_) {
    const AtomStore& store = at->occurrence();
    for (const Atom& atom : store.atoms()) {
      const uint64_t create = *store.CreateEpochOf(atom.id);
      if (!IsPendingEpoch(create) && create > current) {
        return Status::Internal("atom type '" + aname + "': atom #" +
                                std::to_string(atom.id.value) +
                                " is stamped after the current epoch");
      }
    }
    for (const auto& archived : store.archived()) {
      const bool create_pending = IsPendingEpoch(archived.create_epoch);
      const bool delete_pending = IsPendingEpoch(archived.delete_epoch);
      if (create_pending && !delete_pending) {
        return Status::Internal(
            "atom type '" + aname + "': archived atom #" +
            std::to_string(archived.atom.id.value) +
            " has a committed delete over a pending create");
      }
      if (!create_pending && !delete_pending) {
        if (archived.delete_epoch <= archived.create_epoch) {
          return Status::Internal(
              "atom type '" + aname + "': archived atom #" +
              std::to_string(archived.atom.id.value) +
              " has an empty version interval (visible at no epoch)");
        }
        if (archived.delete_epoch > current) {
          return Status::Internal(
              "atom type '" + aname + "': archived atom #" +
              std::to_string(archived.atom.id.value) +
              " is stamped after the current epoch");
        }
      }
    }
  }
  for (const auto& [lname, lt] : link_types_) {
    const LinkStore& links = lt->occurrence();
    for (const Link& link : links.links()) {
      const uint64_t create = *links.CreateEpochOf(link.first, link.second);
      if (!IsPendingEpoch(create) && create > current) {
        return Status::Internal("link type '" + lname + "': link <#" +
                                std::to_string(link.first.value) + ", #" +
                                std::to_string(link.second.value) +
                                "> is stamped after the current epoch");
      }
    }
    for (const auto& archived : links.archived()) {
      const bool create_pending = IsPendingEpoch(archived.create_epoch);
      const bool delete_pending = IsPendingEpoch(archived.delete_epoch);
      if (create_pending && !delete_pending) {
        return Status::Internal(
            "link type '" + lname +
            "': archived link has a committed delete over a pending create");
      }
      if (!create_pending && !delete_pending &&
          archived.delete_epoch <= archived.create_epoch) {
        return Status::Internal(
            "link type '" + lname +
            "': archived link has an empty version interval");
      }
    }
  }
  // No dangling links.
  for (const auto& [lname, lt] : link_types_) {
    auto first_it = atom_types_.find(lt->first_atom_type());
    auto second_it = atom_types_.find(lt->second_atom_type());
    if (first_it == atom_types_.end() || second_it == atom_types_.end()) {
      return Status::Internal("link type '" + lname +
                              "' references a dropped atom type");
    }
    for (const Link& link : lt->occurrence().links()) {
      if (!first_it->second->occurrence().Contains(link.first) ||
          !second_it->second->occurrence().Contains(link.second)) {
        return Status::Internal("link type '" + lname +
                                "' contains a dangling link <#" +
                                std::to_string(link.first.value) + ", #" +
                                std::to_string(link.second.value) + ">");
      }
    }
  }
  // Indexes agree with their occurrences (the index mirrors the head,
  // pending versions included).
  for (const auto& [aname, per_type] : indexes_) {
    auto at_it = atom_types_.find(aname);
    if (at_it == atom_types_.end()) {
      return Status::Internal("index set for dropped atom type '" + aname +
                              "'");
    }
    const AtomStore& store = at_it->second->occurrence();
    for (const auto& [attr, index] : per_type) {
      if (index->entry_count() != store.size()) {
        return Status::Internal("index " + aname + "." + attr +
                                " entry count mismatch");
      }
      for (const Atom& atom : store.atoms()) {
        const auto& bucket = index->Lookup(atom.values[index->value_index()]);
        bool found = false;
        for (AtomId id : bucket) {
          if (id == atom.id) {
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::Internal("index " + aname + "." + attr +
                                  " is missing atom #" +
                                  std::to_string(atom.id.value));
        }
      }
    }
  }
  return Status::OK();
}

size_t Database::total_atom_count() const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  size_t n = 0;
  for (const auto& [name, at] : atom_types_) n += at->occurrence().size();
  return n;
}

size_t Database::total_link_count() const {
  mu_.AssertReaderHeld();  // escape hatch: conditional caller-locks read
  size_t n = 0;
  for (const auto& [name, lt] : link_types_) n += lt->occurrence().size();
  return n;
}

}  // namespace mad
