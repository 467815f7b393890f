#ifndef MAD_RELATIONAL_RELATION_H_
#define MAD_RELATIONAL_RELATION_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/schema.h"
#include "core/value.h"
#include "util/result.h"

namespace mad {
namespace rel {

/// A classical relation: a schema plus a *set* of tuples (duplicates are
/// eliminated on insert, unlike MAD atom types whose atoms carry identity).
/// This is the baseline model of Fig. 3's left-hand column.
class Relation {
 public:
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<std::vector<Value>>& tuples() const { return tuples_; }

  /// Inserts a tuple; returns false (without error) if an equal tuple is
  /// already present — relational set semantics.
  Result<bool> Insert(std::vector<Value> tuple);

  bool Contains(const std::vector<Value>& tuple) const;

  /// Order-insensitive equality of schema and tuple sets.
  bool operator==(const Relation& other) const;

 private:
  static std::string Fingerprint(const std::vector<Value>& tuple);

  Schema schema_;
  std::vector<std::vector<Value>> tuples_;
  std::unordered_set<std::string> present_;
};

/// A named collection of relations — the relational database the MAD model
/// degenerates to when no link types are defined.
class RelationalDatabase {
 public:
  explicit RelationalDatabase(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Status Define(const std::string& rname, Schema schema);
  Status Insert(const std::string& rname, std::vector<Value> tuple);
  Result<const Relation*> Get(const std::string& rname) const;
  Result<Relation*> GetMutable(const std::string& rname);
  bool Has(const std::string& rname) const { return index_.count(rname) > 0; }
  size_t relation_count() const { return order_.size(); }
  size_t total_tuple_count() const;

 private:
  std::string name_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, Relation> index_;
};

}  // namespace rel
}  // namespace mad

#endif  // MAD_RELATIONAL_RELATION_H_
