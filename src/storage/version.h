#ifndef MAD_STORAGE_VERSION_H_
#define MAD_STORAGE_VERSION_H_

#include <atomic>
#include <cstdint>

namespace mad {

/// Epoch-based multi-versioning (DESIGN.md §11).
///
/// Every stored atom and link carries a version interval
/// [create_epoch, delete_epoch): the version exists at exactly the epochs
/// inside the interval. Committed epochs are small integers handed out by
/// the owning Database; an epoch stamp at or above kPendingEpochBase is a
/// *pending* stamp — the private mark of one uncommitted transaction
/// (kPendingEpochBase + transaction id). Pending stamps compare greater
/// than every committable epoch, so uncommitted versions are invisible to
/// every reader except the transaction that wrote them.

/// First pending stamp. Real epochs stay far below (one epoch per commit;
/// 2^62 commits outlive the process), so `epoch >= kPendingEpochBase` is
/// the pending test and pending stamps never order before a real epoch.
inline constexpr uint64_t kPendingEpochBase = uint64_t{1} << 62;

/// delete_epoch of a live (never-deleted) version.
inline constexpr uint64_t kNeverDeleted = ~uint64_t{0};

inline constexpr bool IsPendingEpoch(uint64_t epoch) {
  return epoch >= kPendingEpochBase;
}

/// A reader's position in epoch time: everything committed at or before
/// `epoch` is visible, plus (inside a transaction) the reader's own pending
/// writes stamped `self_stamp`. `self_stamp == 0` means "no transaction".
struct ReadView {
  uint64_t epoch = 0;
  uint64_t self_stamp = 0;
};

/// True iff a version stamped [create_epoch, delete_epoch) exists for
/// `view`: created at or before the view's epoch (or by the view's own
/// transaction) and not deleted at or before it (nor by its own
/// transaction).
inline constexpr bool VisibleAt(uint64_t create_epoch, uint64_t delete_epoch,
                                const ReadView& view) {
  const bool created =
      create_epoch <= view.epoch ||
      (view.self_stamp != 0 && create_epoch == view.self_stamp);
  const bool deleted =
      delete_epoch <= view.epoch ||
      (view.self_stamp != 0 && delete_epoch == view.self_stamp);
  return created && !deleted;
}

/// A fresh head version for AtomStore / LinkStore::head_version. Every store
/// draws from this one process-wide counter, at construction and on every
/// head mutation, so no two store states share a version — not even those
/// of a dropped store and a new one allocated at its address.
inline uint64_t NextHeadVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-version bookkeeping carried alongside every live store entry.
/// `seq` is a store-local monotonic insertion ticket: snapshot readers
/// merge live and archived versions back into one deterministic order by
/// seq, which for live entries coincides with insertion order.
struct VersionMeta {
  uint64_t create_epoch = 0;
  uint64_t seq = 0;
};

}  // namespace mad

#endif  // MAD_STORAGE_VERSION_H_
