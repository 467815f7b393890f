#include "storage/link_store.h"

#include <algorithm>

namespace mad {

namespace {
const std::vector<AtomId> kNoPartners;

/// Removes the first occurrence of `id`, preserving the relative order of
/// the remaining entries (the Partners() ordering guarantee).
void RemoveOne(std::vector<AtomId>& list, AtomId id) {
  auto it = std::find(list.begin(), list.end(), id);
  if (it != list.end()) list.erase(it);
}
}  // namespace

Status LinkStore::Insert(AtomId first, AtomId second, uint64_t create_epoch) {
  if (!first.valid() || !second.valid()) {
    return Status::InvalidArgument("link endpoints must be valid atom ids");
  }
  Link link{first, second};
  if (!index_.emplace(link, LinkInfo{links_.size(), create_epoch, next_seq_})
           .second) {
    return Status::AlreadyExists("link <#" + std::to_string(first.value) +
                                 ", #" + std::to_string(second.value) +
                                 "> already present");
  }
  ++next_seq_;
  links_.push_back(link);
  forward_[first].push_back(second);
  backward_[second].push_back(first);
  NoteEpoch(create_epoch);
  head_version_ = NextHeadVersion();
  return Status::OK();
}

LinkStore::LinkInfo LinkStore::EraseFromLinks(const Link& link) {
  auto it = index_.find(link);
  LinkInfo info = it->second;
  index_.erase(it);
  if (info.slot + 1 != links_.size()) {
    links_[info.slot] = links_.back();
    index_[links_[info.slot]].slot = info.slot;
  }
  links_.pop_back();
  return info;
}

Status LinkStore::Erase(AtomId first, AtomId second) {
  Link link{first, second};
  if (index_.count(link) == 0) {
    return Status::NotFound("link <#" + std::to_string(first.value) + ", #" +
                            std::to_string(second.value) + "> not present");
  }
  LinkInfo info = EraseFromLinks(link);
  if (IsPendingEpoch(info.create_epoch)) --pending_count_;
  RemoveOne(forward_[first], second);
  RemoveOne(backward_[second], first);
  head_version_ = NextHeadVersion();
  return Status::OK();
}

Result<LinkStore::ArchiveHandle> LinkStore::Archive(AtomId first,
                                                    AtomId second,
                                                    uint64_t delete_epoch) {
  Link link{first, second};
  if (index_.count(link) == 0) {
    return Status::NotFound("link <#" + std::to_string(first.value) + ", #" +
                            std::to_string(second.value) + "> not present");
  }
  LinkInfo info = EraseFromLinks(link);
  RemoveOne(forward_[first], second);
  RemoveOne(backward_[second], first);
  // The create stamp's pending count moves with the version; only the new
  // delete stamp is accounted here.
  archived_.push_back(
      ArchivedLink{link, info.create_epoch, delete_epoch, info.seq});
  NoteEpoch(delete_epoch);
  head_version_ = NextHeadVersion();
  return std::prev(archived_.end());
}

Status LinkStore::Resurrect(ArchiveHandle handle) {
  const Link link = handle->link;
  if (index_.count(link) > 0) {
    return Status::AlreadyExists(
        "link <#" + std::to_string(link.first.value) + ", #" +
        std::to_string(link.second.value) +
        "> re-entered the head before resurrection");
  }
  if (IsPendingEpoch(handle->delete_epoch)) --pending_count_;
  index_[link] = LinkInfo{links_.size(), handle->create_epoch, handle->seq};
  links_.push_back(link);
  // Reinsert into both partner lists at the seq-sorted position so Partners()
  // keeps listing the surviving links in link-insertion order.
  auto seq_position = [this](const std::vector<AtomId>& list, AtomId anchor,
                             bool anchor_is_first, uint64_t seq) {
    size_t pos = 0;
    for (; pos < list.size(); ++pos) {
      Link other = anchor_is_first ? Link{anchor, list[pos]}
                                   : Link{list[pos], anchor};
      if (index_.at(other).seq > seq) break;
    }
    return pos;
  };
  {
    std::vector<AtomId>& list = forward_[link.first];
    size_t pos = seq_position(list, link.first, /*anchor_is_first=*/true,
                              handle->seq);
    list.insert(list.begin() + static_cast<ptrdiff_t>(pos), link.second);
  }
  {
    std::vector<AtomId>& list = backward_[link.second];
    size_t pos = seq_position(list, link.second, /*anchor_is_first=*/false,
                              handle->seq);
    list.insert(list.begin() + static_cast<ptrdiff_t>(pos), link.first);
  }
  archived_.erase(handle);
  head_version_ = NextHeadVersion();
  return Status::OK();
}

void LinkStore::RestampCreate(AtomId first, AtomId second, uint64_t epoch) {
  auto it = index_.find(Link{first, second});
  if (it == index_.end()) return;
  if (!IsPendingEpoch(it->second.create_epoch)) return;
  it->second.create_epoch = epoch;
  NoteRestamp(epoch);
}

void LinkStore::RestampArchived(ArchiveHandle handle, uint64_t epoch) {
  if (IsPendingEpoch(handle->create_epoch)) {
    handle->create_epoch = epoch;
    NoteRestamp(epoch);
  }
  if (IsPendingEpoch(handle->delete_epoch)) {
    handle->delete_epoch = epoch;
    NoteRestamp(epoch);
  }
}

void LinkStore::DropArchived(ArchiveHandle handle) {
  if (IsPendingEpoch(handle->delete_epoch)) --pending_count_;
  if (IsPendingEpoch(handle->create_epoch)) --pending_count_;
  archived_.erase(handle);
}

void LinkStore::MoveToEnd(const std::vector<Link>& links) {
  std::vector<std::pair<uint64_t, Link>> present;
  present.reserve(links.size());
  for (const Link& link : links) {
    if (auto it = index_.find(link); it != index_.end()) {
      present.emplace_back(it->second.seq, link);
    }
  }
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());
  // In seq order, which is the order of every partner list.
  for (const auto& [seq, link] : present) {
    const uint64_t create_epoch = index_.at(link).create_epoch;
    Status erased = Erase(link.first, link.second);
    (void)erased;
    Status inserted = Insert(link.first, link.second, create_epoch);
    (void)inserted;
  }
}

size_t LinkStore::ReclaimBefore(uint64_t horizon) {
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

size_t LinkStore::EraseAllOf(AtomId atom) {
  size_t erased = 0;
  // Links with `atom` in the first role (reflexive self-links included).
  auto fit = forward_.find(atom);
  if (fit != forward_.end()) {
    for (AtomId second : fit->second) {
      LinkInfo info = EraseFromLinks(Link{atom, second});
      if (IsPendingEpoch(info.create_epoch)) --pending_count_;
      if (second != atom) RemoveOne(backward_[second], atom);
      ++erased;
    }
    forward_.erase(fit);
  }
  // Links with `atom` in the second role; self-links were handled above and
  // their backward entry dies with the wholesale erase below.
  auto bit = backward_.find(atom);
  if (bit != backward_.end()) {
    for (AtomId first : bit->second) {
      if (first == atom) continue;
      LinkInfo info = EraseFromLinks(Link{first, atom});
      if (IsPendingEpoch(info.create_epoch)) --pending_count_;
      RemoveOne(forward_[first], atom);
      ++erased;
    }
    backward_.erase(bit);
  }
  head_version_ = NextHeadVersion();
  return erased;
}

size_t LinkStore::ArchiveAllOf(AtomId atom, uint64_t delete_epoch,
                               std::vector<ArchiveHandle>* out) {
  size_t archived = 0;
  // Archive() mutates the partner lists we would iterate, so work on copies.
  std::vector<AtomId> seconds;
  if (auto fit = forward_.find(atom); fit != forward_.end()) {
    seconds = fit->second;
  }
  for (AtomId second : seconds) {
    auto handle = Archive(atom, second, delete_epoch);
    if (!handle.ok()) continue;
    if (out != nullptr) out->push_back(handle.value());
    ++archived;
  }
  std::vector<AtomId> firsts;
  if (auto bit = backward_.find(atom); bit != backward_.end()) {
    firsts = bit->second;
  }
  for (AtomId first : firsts) {
    if (first == atom) continue;  // self-links were archived above
    auto handle = Archive(first, atom, delete_epoch);
    if (!handle.ok()) continue;
    if (out != nullptr) out->push_back(handle.value());
    ++archived;
  }
  head_version_ = NextHeadVersion();
  return archived;
}

bool LinkStore::Contains(AtomId first, AtomId second) const {
  return index_.count(Link{first, second}) > 0;
}

const std::vector<AtomId>& LinkStore::Partners(AtomId atom,
                                               LinkDirection direction) const {
  const auto& index =
      direction == LinkDirection::kForward ? forward_ : backward_;
  auto it = index.find(atom);
  if (it == index.end()) return kNoPartners;
  return it->second;
}

bool LinkStore::ContainsAt(AtomId first, AtomId second,
                           const ReadView& view) const {
  AssertOwnerSharedHeld();
  auto it = index_.find(Link{first, second});
  if (it != index_.end() &&
      VisibleAt(it->second.create_epoch, kNeverDeleted, view)) {
    return true;
  }
  for (const ArchivedLink& a : archived_) {
    if (a.link.first == first && a.link.second == second &&
        VisibleAt(a.create_epoch, a.delete_epoch, view)) {
      return true;
    }
  }
  return false;
}

std::vector<AtomId> LinkStore::PartnersAt(AtomId atom, LinkDirection direction,
                                          const ReadView& view) const {
  AssertOwnerSharedHeld();
  if (HeadVisibleAt(view)) return Partners(atom, direction);
  const bool forward = direction == LinkDirection::kForward;
  std::vector<std::pair<uint64_t, AtomId>> ordered;
  const auto& index = forward ? forward_ : backward_;
  if (auto it = index.find(atom); it != index.end()) {
    for (AtomId partner : it->second) {
      Link link = forward ? Link{atom, partner} : Link{partner, atom};
      const LinkInfo& info = index_.at(link);
      if (VisibleAt(info.create_epoch, kNeverDeleted, view)) {
        ordered.emplace_back(info.seq, partner);
      }
    }
  }
  for (const ArchivedLink& a : archived_) {
    AtomId self = forward ? a.link.first : a.link.second;
    if (self != atom) continue;
    if (VisibleAt(a.create_epoch, a.delete_epoch, view)) {
      ordered.emplace_back(a.seq, forward ? a.link.second : a.link.first);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<AtomId> partners;
  partners.reserve(ordered.size());
  for (const auto& [seq, partner] : ordered) partners.push_back(partner);
  return partners;
}

}  // namespace mad
