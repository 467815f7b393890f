#include "storage/index.h"

#include <algorithm>

#include "storage/atom_store.h"

namespace mad {

namespace {
const std::vector<AtomId> kNoMatches;
}  // namespace

void AttributeIndex::Insert(const Atom& atom) {
  buckets_[atom.values[value_index_]].push_back(atom.id);
  ++entries_;
}

void AttributeIndex::InsertInHeadOrder(const Atom& atom,
                                       const AtomStore& head) {
  std::vector<AtomId>& bucket = buckets_[atom.values[value_index_]];
  const size_t position = *head.PositionOf(atom.id);
  auto place = std::partition_point(
      bucket.begin(), bucket.end(),
      [&](AtomId id) { return *head.PositionOf(id) < position; });
  bucket.insert(place, atom.id);
  ++entries_;
}

void AttributeIndex::Erase(const Atom& atom) {
  auto it = buckets_.find(atom.values[value_index_]);
  if (it == buckets_.end()) return;
  auto pos = std::find(it->second.begin(), it->second.end(), atom.id);
  if (pos == it->second.end()) return;
  it->second.erase(pos);
  --entries_;
  if (it->second.empty()) buckets_.erase(it);
}

const std::vector<AtomId>& AttributeIndex::Lookup(const Value& value) const {
  auto it = buckets_.find(value);
  if (it == buckets_.end()) return kNoMatches;
  return it->second;
}

}  // namespace mad
