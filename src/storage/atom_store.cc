#include "storage/atom_store.h"

#include <algorithm>

namespace mad {

Status AtomStore::Insert(Atom atom, uint64_t create_epoch) {
  if (!atom.id.valid()) {
    return Status::InvalidArgument("atom id must be valid");
  }
  if (by_id_.count(atom.id) > 0) {
    return Status::AlreadyExists("atom #" + std::to_string(atom.id.value) +
                                 " already present");
  }
  by_id_[atom.id] = atoms_.size();
  atoms_.push_back(std::move(atom));
  columns_.AppendRow(atoms_.back());
  meta_.push_back(VersionMeta{create_epoch, next_seq_++});
  NoteEpoch(create_epoch);
  head_version_ = NextHeadVersion();
  return Status::OK();
}

Status AtomStore::Erase(AtomId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not present");
  }
  size_t pos = it->second;
  if (IsPendingEpoch(meta_[pos].create_epoch)) --pending_count_;
  by_id_.erase(it);
  atoms_.erase(atoms_.begin() + static_cast<ptrdiff_t>(pos));
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(pos));
  columns_.EraseRow(pos);
  // Reindex the tail to keep insertion order stable.
  for (size_t i = pos; i < atoms_.size(); ++i) by_id_[atoms_[i].id] = i;
  head_version_ = NextHeadVersion();
  return Status::OK();
}

Result<AtomStore::ArchiveHandle> AtomStore::Archive(AtomId id,
                                                    uint64_t delete_epoch) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("atom #" + std::to_string(id.value) +
                            " not present");
  }
  size_t pos = it->second;
  archived_.push_back(ArchivedAtom{std::move(atoms_[pos]),
                                   meta_[pos].create_epoch, delete_epoch,
                                   meta_[pos].seq});
  // The create stamp's pending count moves with the version; only the new
  // delete stamp is accounted here.
  by_id_.erase(it);
  atoms_.erase(atoms_.begin() + static_cast<ptrdiff_t>(pos));
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(pos));
  columns_.EraseRow(pos);
  for (size_t i = pos; i < atoms_.size(); ++i) by_id_[atoms_[i].id] = i;
  NoteEpoch(delete_epoch);
  head_version_ = NextHeadVersion();
  return std::prev(archived_.end());
}

Status AtomStore::Resurrect(ArchiveHandle handle) {
  if (by_id_.count(handle->atom.id) > 0) {
    return Status::AlreadyExists("atom #" +
                                 std::to_string(handle->atom.id.value) +
                                 " re-entered the head before resurrection");
  }
  if (IsPendingEpoch(handle->delete_epoch)) --pending_count_;
  // Reinsert at the seq-sorted position so head order stays the insertion
  // order of the surviving versions.
  auto pos_it = std::lower_bound(
      meta_.begin(), meta_.end(), handle->seq,
      [](const VersionMeta& m, uint64_t seq) { return m.seq < seq; });
  size_t pos = static_cast<size_t>(pos_it - meta_.begin());
  atoms_.insert(atoms_.begin() + static_cast<ptrdiff_t>(pos),
                std::move(handle->atom));
  columns_.InsertRow(pos, atoms_[pos]);
  meta_.insert(pos_it, VersionMeta{handle->create_epoch, handle->seq});
  for (size_t i = pos; i < atoms_.size(); ++i) by_id_[atoms_[i].id] = i;
  archived_.erase(handle);
  head_version_ = NextHeadVersion();
  return Status::OK();
}

void AtomStore::RestampCreate(AtomId id, uint64_t epoch) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  VersionMeta& meta = meta_[it->second];
  if (!IsPendingEpoch(meta.create_epoch)) return;
  meta.create_epoch = epoch;
  NoteRestamp(epoch);
}

void AtomStore::RestampArchived(ArchiveHandle handle, uint64_t epoch) {
  if (IsPendingEpoch(handle->create_epoch)) {
    handle->create_epoch = epoch;
    NoteRestamp(epoch);
  }
  if (IsPendingEpoch(handle->delete_epoch)) {
    handle->delete_epoch = epoch;
    NoteRestamp(epoch);
  }
}

void AtomStore::DropArchived(ArchiveHandle handle) {
  if (IsPendingEpoch(handle->delete_epoch)) --pending_count_;
  if (IsPendingEpoch(handle->create_epoch)) --pending_count_;
  archived_.erase(handle);
}

std::vector<AtomId> AtomStore::MoveToEnd(const std::vector<AtomId>& ids) {
  std::vector<size_t> positions;
  positions.reserve(ids.size());
  for (AtomId id : ids) {
    if (auto it = by_id_.find(id); it != by_id_.end()) {
      positions.push_back(it->second);
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  std::vector<AtomId> moved;
  if (positions.empty() ||
      positions.front() + positions.size() == atoms_.size()) {
    return moved;  // already the tail, in order
  }
  moved.reserve(positions.size());
  for (size_t pos : positions) moved.push_back(atoms_[pos].id);
  // Erase + Insert keeps the column mirror, the pending count and the head
  // version exact; in ascending position order the moved versions keep
  // their relative order.
  for (AtomId id : moved) {
    const size_t pos = by_id_.at(id);
    Atom atom = atoms_[pos];
    const uint64_t create_epoch = meta_[pos].create_epoch;
    Status erased = Erase(id);
    (void)erased;
    Status inserted = Insert(std::move(atom), create_epoch);
    (void)inserted;
  }
  return moved;
}

size_t AtomStore::ReclaimBefore(uint64_t horizon) {
  size_t reclaimed = 0;
  for (auto it = archived_.begin(); it != archived_.end();) {
    if (!IsPendingEpoch(it->delete_epoch) && it->delete_epoch <= horizon) {
      it = archived_.erase(it);
      ++reclaimed;
    } else {
      ++it;
    }
  }
  return reclaimed;
}

const Atom* AtomStore::Find(AtomId id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return nullptr;
  return &atoms_[it->second];
}

const Atom* AtomStore::FindVersionAt(AtomId id, const ReadView& view) const {
  AssertOwnerSharedHeld();
  auto it = by_id_.find(id);
  if (it != by_id_.end() &&
      VisibleAt(meta_[it->second].create_epoch, kNeverDeleted, view)) {
    return &atoms_[it->second];
  }
  // Version intervals of one id are disjoint, so at most one archived
  // version is visible at any view.
  for (const ArchivedAtom& a : archived_) {
    if (a.atom.id == id && VisibleAt(a.create_epoch, a.delete_epoch, view)) {
      return &a.atom;
    }
  }
  return nullptr;
}

std::vector<const Atom*> AtomStore::SnapshotAt(const ReadView& view) const {
  AssertOwnerSharedHeld();
  std::vector<const Atom*> out;
  if (HeadVisibleAt(view)) {
    out.reserve(atoms_.size());
    for (const Atom& atom : atoms_) out.push_back(&atom);
    return out;
  }
  std::vector<std::pair<uint64_t, const Atom*>> ordered;
  ordered.reserve(atoms_.size());
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (VisibleAt(meta_[i].create_epoch, kNeverDeleted, view)) {
      ordered.emplace_back(meta_[i].seq, &atoms_[i]);
    }
  }
  for (const ArchivedAtom& a : archived_) {
    if (VisibleAt(a.create_epoch, a.delete_epoch, view)) {
      ordered.emplace_back(a.seq, &a.atom);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(ordered.size());
  for (const auto& [seq, atom] : ordered) out.push_back(atom);
  return out;
}

}  // namespace mad
