#ifndef MAD_STORAGE_LINK_STORE_H_
#define MAD_STORAGE_LINK_STORE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "storage/version.h"
#include "util/result.h"
#include "util/sync.h"

namespace mad {

/// One link: a pair of atoms. `first` plays the role of the link type's
/// first atom type, `second` of its second.
///
/// Def. 2 calls links "unsorted pairs" — traversal is symmetric and neither
/// end is privileged — but madlib stores the role of each end explicitly so
/// that *reflexive* link types (e.g. a bill-of-material 'composition' link on
/// atom type 'part') can still distinguish the super-component end from the
/// sub-component end, which the paper's super-/sub-component views require.
struct Link {
  AtomId first;
  AtomId second;

  auto operator<=>(const Link&) const = default;
};

/// Traversal direction through a link type.
enum class LinkDirection {
  kForward,   ///< from the first-role end to the second-role end
  kBackward,  ///< from the second-role end to the first-role end
};

/// A link-type occurrence (Def. 2): a set of links, indexed from both ends
/// so traversal is symmetric and O(degree).
///
/// Ordering guarantees:
///  * Partners() lists partners in link-insertion order, and erasing a link
///    preserves the relative order of the remaining partners — derivation
///    output order depends on this.
///  * links() has no order guarantee across erases: erasure swap-and-pops
///    the backing vector (O(1) instead of an O(n) scan), so it is insertion
///    order only until the first erase.
///
/// Versioning mirrors AtomStore (DESIGN.md §11): the live structures are
/// the head; superseded links move into a node-stable archive stamped
/// [create_epoch, delete_epoch), and PartnersAt/ContainsAt reconstruct the
/// occurrence at a pinned epoch. When `HeadVisibleAt` holds, head readers
/// pay nothing extra.
class LinkStore {
 public:
  struct ArchivedLink {
    Link link;
    uint64_t create_epoch = 0;
    uint64_t delete_epoch = kNeverDeleted;
    uint64_t seq = 0;
  };
  using ArchiveHandle = std::list<ArchivedLink>::iterator;

  /// Binds this store to the owning Database's storage lock; see
  /// AtomStore::BindOwner — same contract, same runtime no-op assertion.
  void BindOwner(const SharedMutex* mu) { owner_mu_ = mu; }

  /// Inserts a link stamped `create_epoch` (0 = visible at every epoch);
  /// duplicate (first, second) pairs are rejected.
  Status Insert(AtomId first, AtomId second, uint64_t create_epoch = 0);

  /// Physically removes a link in ~O(degree) — no archived version
  /// remains; fails if absent.
  Status Erase(AtomId first, AtomId second);

  /// Moves the live link into the archive with the given delete stamp.
  Result<ArchiveHandle> Archive(AtomId first, AtomId second,
                                uint64_t delete_epoch);

  /// Moves an archived link back into the head, restoring its seq-ordered
  /// position in both partner lists (transaction rollback of an erase).
  Status Resurrect(ArchiveHandle handle);

  /// Replaces a pending create stamp on the live link (commit).
  void RestampCreate(AtomId first, AtomId second, uint64_t epoch);
  /// Replaces the pending stamps of an archived link (commit of an erase).
  void RestampArchived(ArchiveHandle handle, uint64_t epoch);
  /// Drops an archived link whose committed interval came out empty.
  void DropArchived(ArchiveHandle handle);

  /// Moves the live links among `links` behind every other entry of both
  /// their partner lists, keeping their relative order and stamps, under
  /// fresh seqs; absent links are ignored. See AtomStore::MoveToEnd.
  void MoveToEnd(const std::vector<Link>& links);

  /// Reclaims archived links with committed delete_epoch <= horizon.
  size_t ReclaimBefore(uint64_t horizon);

  /// Removes every live link having `atom` at either end; returns the
  /// number removed. Physical removal (no archive) — the non-versioned
  /// referential-integrity cascade. Cost is proportional to the atom's
  /// degree plus one ordered removal in each partner's list.
  size_t EraseAllOf(AtomId atom);

  /// Archives every live link having `atom` at either end with the given
  /// delete stamp, appending a handle per link to `out`. The versioned
  /// cascade behind DeleteAtom.
  size_t ArchiveAllOf(AtomId atom, uint64_t delete_epoch,
                      std::vector<ArchiveHandle>* out);

  bool Contains(AtomId first, AtomId second) const;

  /// Partner atoms of `atom` when traversing in `direction`; for kForward
  /// `atom` is matched against the first role, for kBackward against the
  /// second. Partners appear in link-insertion order (see class comment).
  const std::vector<AtomId>& Partners(AtomId atom,
                                      LinkDirection direction) const;

  // --- Epoch-pinned reads --------------------------------------------------

  bool HeadVisibleAt(const ReadView& view) const {
    AssertOwnerSharedHeld();
    return pending_count_ == 0 && view.epoch >= clean_epoch_;
  }

  bool ContainsAt(AtomId first, AtomId second, const ReadView& view) const;

  /// Partners of `atom` in the occurrence at `view`, in the link-insertion
  /// order of a database materialized at that epoch. Returns by value;
  /// prefer Partners() on the HeadVisibleAt fast path.
  std::vector<AtomId> PartnersAt(AtomId atom, LinkDirection direction,
                                 const ReadView& view) const;

  /// Create stamp of the live link, or nullopt if absent.
  std::optional<uint64_t> CreateEpochOf(AtomId first, AtomId second) const {
    auto it = index_.find(Link{first, second});
    if (it == index_.end()) return std::nullopt;
    return it->second.create_epoch;
  }

  size_t size() const { return links_.size(); }
  bool empty() const { return links_.empty(); }

  /// Changes whenever the head does: Insert, Erase, Archive, Resurrect,
  /// MoveToEnd (through Erase and Insert), EraseAllOf and ArchiveAllOf each
  /// draw a fresh NextHeadVersion(). See AtomStore::head_version.
  uint64_t head_version() const { return head_version_; }

  /// All live links, in storage order (see class comment).
  const std::vector<Link>& links() const { return links_; }

  const std::list<ArchivedLink>& archived() const { return archived_; }
  size_t archived_count() const { return archived_.size(); }
  size_t pending_count() const { return pending_count_; }

 private:
  struct LinkHash {
    size_t operator()(const Link& link) const noexcept {
      size_t h = std::hash<AtomId>{}(link.first);
      return h ^ (std::hash<AtomId>{}(link.second) + 0x9e3779b97f4a7c15ULL +
                  (h << 6) + (h >> 2));
    }
  };
  struct LinkInfo {
    size_t slot = 0;  // position in links_
    uint64_t create_epoch = 0;
    uint64_t seq = 0;
  };

  /// Swap-and-pop removal from links_ keeping index_ consistent; the link
  /// must be present. Returns the removed link's info.
  LinkInfo EraseFromLinks(const Link& link);

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

  /// See AtomStore::AssertOwnerSharedHeld. Runtime no-op.
  void AssertOwnerSharedHeld() const MAD_ASSERT_SHARED_CAPABILITY(owner_mu_) {}

  const SharedMutex* owner_mu_ = nullptr;
  std::vector<Link> links_;
  std::unordered_map<Link, LinkInfo, LinkHash> index_;
  std::unordered_map<AtomId, std::vector<AtomId>> forward_;
  std::unordered_map<AtomId, std::vector<AtomId>> backward_;
  std::list<ArchivedLink> archived_;
  uint64_t next_seq_ = 1;
  uint64_t clean_epoch_ = 0;
  size_t pending_count_ = 0;
  uint64_t head_version_ = NextHeadVersion();
};

}  // namespace mad

#endif  // MAD_STORAGE_LINK_STORE_H_
