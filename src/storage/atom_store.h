#ifndef MAD_STORAGE_ATOM_STORE_H_
#define MAD_STORAGE_ATOM_STORE_H_

#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/atom.h"
#include "core/schema.h"
#include "storage/column.h"
#include "storage/version.h"
#include "util/result.h"
#include "util/sync.h"

namespace mad {

/// An atom-type occurrence (Def. 1): the set of atoms of one atom type,
/// stored in insertion order with O(1) lookup by id.
///
/// Versioning (DESIGN.md §11): the vector of atoms is the *head* — the
/// newest version of every id, pending writes included. Superseded and
/// deleted versions move into a cold archive stamped with their
/// [create_epoch, delete_epoch) interval, so a reader pinned at epoch E
/// reconstructs the exact occurrence at E (SnapshotAt / FindVersionAt)
/// while head readers pay nothing: when no version newer than E and no
/// pending write exists (`HeadVisibleAt`), head *is* the snapshot.
///
/// Columnar mirror (DESIGN.md §13): every head mutation also maintains a
/// column-major ColumnSet (per-attribute typed arrays + null bitmaps + an
/// id column), row r of which always equals atoms()[r]. Batch predicate
/// kernels read the columns; every pointer- and id-based API keeps reading
/// the row-major head. The cold archive stays row-oriented.
class AtomStore {
 public:
  /// One archived (superseded or deleted) version. Node-based storage:
  /// handles stay valid across archive growth and reclamation of other
  /// entries, which transaction undo logs rely on.
  struct ArchivedAtom {
    Atom atom;
    uint64_t create_epoch = 0;
    uint64_t delete_epoch = kNeverDeleted;
    uint64_t seq = 0;
  };
  using ArchiveHandle = std::list<ArchivedAtom>::iterator;

  /// Binds this store to the owning Database's storage lock so the
  /// epoch-pinned readers below can state the caller-locks contract to the
  /// thread-safety analysis (MAD_ASSERT_SHARED_CAPABILITY). Standalone
  /// stores (unit tests, algebra scratch) stay unbound; the assertion is a
  /// runtime no-op either way.
  void BindOwner(const SharedMutex* mu) {
    owner_mu_ = mu;
    columns_.BindOwner(mu);
  }

  /// Inserts an atom stamped `create_epoch` (0 = visible at every epoch);
  /// fails if the id is invalid or already present in the head.
  Status Insert(Atom atom, uint64_t create_epoch = 0);

  /// Physically removes an atom — no archived version remains. Iteration
  /// order of the remaining atoms is preserved. Used by non-versioned
  /// callers and to undo a pending insert.
  Status Erase(AtomId id);

  /// Moves the head version of `id` into the archive with the given
  /// delete stamp. The returned handle restamps or resurrects it later.
  Result<ArchiveHandle> Archive(AtomId id, uint64_t delete_epoch);

  /// Moves an archived version back into the head at its seq-ordered
  /// position (transaction rollback of a delete). Fails if the id
  /// meanwhile re-entered the head.
  Status Resurrect(ArchiveHandle handle);

  /// Replaces a pending create stamp on the head version of `id` (commit).
  void RestampCreate(AtomId id, uint64_t epoch);
  /// Replaces the stamps of an archived version (commit of a delete; also
  /// finalizes a pending create that was superseded within the same
  /// transaction).
  void RestampArchived(ArchiveHandle handle, uint64_t epoch);
  /// Drops an archived version whose committed interval came out empty
  /// (created and deleted in the same transaction): it exists at no epoch.
  void DropArchived(ArchiveHandle handle);

  /// Moves the head versions of `ids` behind every other head version,
  /// keeping their relative order and stamps, under fresh seqs; ids absent
  /// from the head are ignored. Returns the ids moved, in their new order —
  /// empty when they already formed the tail of the head. Commit uses this
  /// to put a transaction's writes where WAL replay re-applies them.
  std::vector<AtomId> MoveToEnd(const std::vector<AtomId>& ids);

  /// Reclaims every archived version invisible to all readers at or after
  /// `horizon` (committed delete_epoch <= horizon). Returns the count.
  size_t ReclaimBefore(uint64_t horizon);

  bool Contains(AtomId id) const { return by_id_.count(id) > 0; }

  /// Pointer into the store, or nullptr if absent. Invalidated by mutation.
  const Atom* Find(AtomId id) const;

  // --- Epoch-pinned reads --------------------------------------------------

  /// True iff the head, as is, equals the snapshot at `view`: no pending
  /// stamps anywhere and no version boundary after the view's epoch.
  bool HeadVisibleAt(const ReadView& view) const {
    AssertOwnerSharedHeld();
    return pending_count_ == 0 && view.epoch >= clean_epoch_;
  }

  /// The version of `id` visible at `view`, or nullptr. Head first, then
  /// the archive. Pointer invalidated by mutation of this store.
  const Atom* FindVersionAt(AtomId id, const ReadView& view) const;

  /// The version of `id` visible at `view`: the head lookup while the head
  /// is the snapshot (HeadVisibleAt), the version lookup otherwise.
  const Atom* FindAt(AtomId id, const ReadView& view) const {
    return HeadVisibleAt(view) ? Find(id) : FindVersionAt(id, view);
  }

  bool ContainsAt(AtomId id, const ReadView& view) const {
    return FindVersionAt(id, view) != nullptr;
  }

  /// Every version visible at `view`, in the insertion order of a database
  /// materialized at that epoch (seq order). Fast path: when
  /// HeadVisibleAt(view), pointers into the head in head order.
  std::vector<const Atom*> SnapshotAt(const ReadView& view) const;

  /// Create stamp of the head version of `id`; nullopt if absent.
  std::optional<uint64_t> CreateEpochOf(AtomId id) const {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return std::nullopt;
    return meta_[it->second].create_epoch;
  }

  /// Insertion-order position of `id`, or nullopt if absent. Lets callers
  /// that collected ids out of order (e.g. from an AttributeIndex bucket)
  /// restore occurrence order deterministically.
  std::optional<size_t> PositionOf(AtomId id) const {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return std::nullopt;
    return it->second;
  }

  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  /// Changes whenever the head does: Insert, Erase, Archive, Resurrect,
  /// MoveToEnd (through Erase and Insert) and Reserve each draw a fresh
  /// NextHeadVersion(). Equal versions of one live store mean the head
  /// vector — ids, values, positions and row addresses — is unchanged.
  /// Restamps and archive-only changes keep it; HeadVisibleAt tracks those.
  uint64_t head_version() const { return head_version_; }

  /// Pre-sizes the head for `n` atoms (bulk loads: checkpoint recovery,
  /// workload generators).
  void Reserve(size_t n) {
    atoms_.reserve(n);
    meta_.reserve(n);
    columns_.Reserve(n);
    head_version_ = NextHeadVersion();
  }

  /// Atoms in insertion order (the head — see class comment).
  const std::vector<Atom>& atoms() const { return atoms_; }

  /// Column-major mirror of the head (see class comment): row r of every
  /// column equals atoms()[r]. Invalidated by mutation, like atoms().
  const ColumnSet& columns() const { return columns_; }

  /// Archived versions awaiting GC, in archive order.
  const std::list<ArchivedAtom>& archived() const { return archived_; }
  size_t archived_count() const { return archived_.size(); }
  /// Pending (uncommitted) stamps across head and archive.
  size_t pending_count() const { return pending_count_; }

 private:
  void NoteEpoch(uint64_t epoch) {
    if (IsPendingEpoch(epoch)) {
      ++pending_count_;
    } else if (epoch > clean_epoch_) {
      clean_epoch_ = epoch;
    }
  }
  void NoteRestamp(uint64_t epoch) {
    --pending_count_;
    if (epoch > clean_epoch_) clean_epoch_ = epoch;
  }

  /// Owned-store invariant for the analysis: epoch-pinned reads happen
  /// under the owning Database's shared lock (Database binds owner_mu_ to
  /// its storage lock at type-definition time). Runtime no-op.
  void AssertOwnerSharedHeld() const MAD_ASSERT_SHARED_CAPABILITY(owner_mu_) {}

  const SharedMutex* owner_mu_ = nullptr;
  std::vector<Atom> atoms_;
  std::vector<VersionMeta> meta_;  // parallel to atoms_, seq ascending
  ColumnSet columns_;              // column-major mirror of atoms_
  std::unordered_map<AtomId, size_t> by_id_;
  std::list<ArchivedAtom> archived_;
  uint64_t next_seq_ = 1;
  /// Head == snapshot for every epoch >= clean_epoch_ (given no pending).
  uint64_t clean_epoch_ = 0;
  size_t pending_count_ = 0;
  uint64_t head_version_ = NextHeadVersion();
};

}  // namespace mad

#endif  // MAD_STORAGE_ATOM_STORE_H_
