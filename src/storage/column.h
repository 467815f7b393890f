#ifndef MAD_STORAGE_COLUMN_H_
#define MAD_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/atom.h"
#include "core/value.h"
#include "util/result.h"
#include "util/sync.h"

namespace mad {

/// Packed null bitmap helpers shared by columns and selection bitmaps:
/// bit r of word r/64 is row r. Insert/erase shift the tail, mirroring the
/// order-preserving shifting erase of AtomStore.
namespace bitmap {

inline bool Get(const std::vector<uint64_t>& words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

inline void Set(std::vector<uint64_t>& words, size_t i, bool v) {
  if (v) {
    words[i >> 6] |= uint64_t{1} << (i & 63);
  } else {
    words[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
}

/// Appends one bit to a bitmap currently holding `n` bits.
void Append(std::vector<uint64_t>& words, size_t n, bool v);

/// Inserts a bit at position `i` into a bitmap of `n` bits; bits at and
/// above `i` shift up by one.
void Insert(std::vector<uint64_t>& words, size_t n, size_t i, bool v);

/// Erases the bit at position `i` from a bitmap of `n` bits; bits above `i`
/// shift down by one.
void Erase(std::vector<uint64_t>& words, size_t n, size_t i);

}  // namespace bitmap

/// One attribute slot of an atom-type occurrence, column-major: a typed
/// dense array plus a null bitmap, parallel to the store's head rows.
///
/// Columns are self-typing (AtomStore is schema-unaware): the element type
/// is fixed by the first non-null value seen. Schema validation keeps every
/// real store homogeneous; a store fed heterogeneous values through the raw
/// API degrades the column to `mixed`, which batch kernels refuse — the
/// row-major head stays authoritative, so nothing else changes.
class Column {
 public:
  DataType type() const { return type_; }
  bool mixed() const { return mixed_; }
  bool IsNull(size_t row) const { return bitmap::Get(null_words_, row); }

  /// The value at `row`, reconstructed exactly (type and content) as it was
  /// appended. Must not be called on a mixed column.
  Value ValueAt(size_t row) const;

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<std::string>& strings() const { return strings_; }
  /// Null bitmap words; rows beyond the row count read as zero bits.
  const std::vector<uint64_t>& null_words() const { return null_words_; }

 private:
  friend class ColumnSet;

  void Append(const Value& v, size_t rows);
  void Insert(size_t row, const Value& v, size_t rows);
  void Erase(size_t row, size_t rows);
  void Clear();
  void Degrade();  // -> mixed: typed data dropped, head stays authoritative

  // Grows the active typed vector with placeholders up to `rows` entries
  // (rows appended while the column was still all-null).
  void FillPlaceholders(size_t rows);
  void AppendTyped(const Value& v);
  void InsertTyped(size_t row, const Value& v);
  void EraseTyped(size_t row);

  DataType type_ = DataType::kNull;  // kNull until the first non-null value
  bool mixed_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<uint64_t> null_words_;
};

/// The column-major mirror of one AtomStore head: per-attribute-slot typed
/// arrays, null bitmaps, and a dense row -> stable-id column, maintained
/// incrementally through every head mutation (insert, shifting erase,
/// archive, seq-ordered resurrect).
///
/// Invariant (audited by AuditAgainstRows / Database::CheckConsistency):
/// for every head row r and slot s, `ValueAt(s, r)` equals
/// `atoms()[r].values[s]` bit-for-bit and `IdAt(r) == atoms()[r].id`. The
/// cold version archive stays row-oriented; columns cover the head only.
///
/// Arity anomalies (only reachable through the raw AtomStore API — schemas
/// pin the arity of real types) mark the set irregular: typed data is
/// dropped, the id column stays maintained, and everything falls back to
/// the row-major head until the store empties and the set resets.
class ColumnSet {
 public:
  /// Binds this set to the owning Database's storage lock; see
  /// AtomStore::BindOwner (AtomStore forwards its binding here).
  void BindOwner(const SharedMutex* mu) { owner_mu_ = mu; }

  size_t rows() const { return rows_; }
  bool regular() const { return regular_; }

  /// Column for attribute slot `slot`, or nullptr when the set is irregular
  /// or the slot is out of range. A returned column may still be mixed.
  /// Batch-kernel entry point: callers scan the returned arrays, so the
  /// owning Database lock must be held (shared) for the whole scan.
  const Column* column(size_t slot) const {
    AssertOwnerSharedHeld();
    if (!regular_ || slot >= columns_.size()) return nullptr;
    return &columns_[slot];
  }

  AtomId IdAt(size_t row) const { return ids_[row]; }
  const std::vector<AtomId>& ids() const { return ids_; }

  /// Value of slot `slot` at `row`; requires a regular set and a non-mixed
  /// column (callers hold rows/slots in range).
  Value ValueAt(size_t slot, size_t row) const {
    return columns_[slot].ValueAt(row);
  }

  void Clear();
  void Reserve(size_t rows);
  void AppendRow(const Atom& atom);
  void InsertRow(size_t row, const Atom& atom);
  void EraseRow(size_t row);

  /// Verifies the head/column invariant against the row-major head. Used by
  /// Database::CheckConsistency and the columnar tests.
  Status AuditAgainstRows(const std::vector<Atom>& atoms) const;

 private:
  /// See AtomStore::AssertOwnerSharedHeld. Runtime no-op.
  void AssertOwnerSharedHeld() const MAD_ASSERT_SHARED_CAPABILITY(owner_mu_) {}

  const SharedMutex* owner_mu_ = nullptr;
  std::vector<Column> columns_;
  std::vector<AtomId> ids_;
  size_t rows_ = 0;
  bool regular_ = true;
};

}  // namespace mad

#endif  // MAD_STORAGE_COLUMN_H_
