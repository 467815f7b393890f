#ifndef MAD_STORAGE_INDEX_H_
#define MAD_STORAGE_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/atom.h"
#include "core/value.h"

namespace mad {

class AtomStore;

/// A hash index over one attribute of one atom type: value -> atom ids.
/// Maintained by the owning Database on every occurrence mutation; used by
/// the equality fast path of the atom-type restriction σ and exposed for
/// point lookups.
class AttributeIndex {
 public:
  AttributeIndex(std::string atom_type, std::string attribute,
                 size_t value_index)
      : atom_type_(std::move(atom_type)),
        attribute_(std::move(attribute)),
        value_index_(value_index) {}

  const std::string& atom_type() const { return atom_type_; }
  const std::string& attribute() const { return attribute_; }
  size_t value_index() const { return value_index_; }

  /// Appends `atom` to its bucket: its place when it is the newest entry of
  /// the head.
  void Insert(const Atom& atom);
  /// Inserts `atom` at its head-order place in its bucket: before the first
  /// entry that `head` holds at a later position. For an atom restored into
  /// the middle of the head (rollback of a delete); the bucket must already
  /// be in head order.
  void InsertInHeadOrder(const Atom& atom, const AtomStore& head);
  void Erase(const Atom& atom);

  /// Atom ids whose attribute equals `value`, in the head order of the
  /// atom type's occurrence.
  const std::vector<AtomId>& Lookup(const Value& value) const;

  /// Number of distinct indexed values.
  size_t distinct_values() const { return buckets_.size(); }
  size_t entry_count() const { return entries_; }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };

  std::string atom_type_;
  std::string attribute_;
  size_t value_index_;
  std::unordered_map<Value, std::vector<AtomId>, ValueHash> buckets_;
  size_t entries_ = 0;
};

}  // namespace mad

#endif  // MAD_STORAGE_INDEX_H_
