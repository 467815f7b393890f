#ifndef MAD_RELATIONAL_NF2_H_
#define MAD_RELATIONAL_NF2_H_

#include <memory>
#include <string>
#include <vector>

#include "molecule/molecule_type.h"
#include "storage/database.h"
#include "util/result.h"

namespace mad {
namespace nf2 {

class NestedRelation;

/// One attribute of an NF² schema: atomic (type != kNull) or
/// relation-valued (nested != nullptr) — the [SS86] model the paper
/// positions as a special case of molecules.
struct Nf2Attribute {
  std::string name;
  DataType type = DataType::kNull;
  std::shared_ptr<const class Nf2Schema> nested;

  bool atomic() const { return nested == nullptr; }
};

/// An NF² schema: an ordered list of atomic and relation-valued attributes.
class Nf2Schema {
 public:
  void AddAtomic(std::string name, DataType type) {
    attributes_.push_back(Nf2Attribute{std::move(name), type, nullptr});
  }
  void AddNested(std::string name, std::shared_ptr<const Nf2Schema> nested) {
    attributes_.push_back(
        Nf2Attribute{std::move(name), DataType::kNull, std::move(nested)});
  }
  const std::vector<Nf2Attribute>& attributes() const { return attributes_; }
  std::string ToString() const;

 private:
  std::vector<Nf2Attribute> attributes_;
};

/// One NF² field: an atomic value or a nested relation instance.
struct Nf2Value {
  Value atomic;
  std::shared_ptr<NestedRelation> nested;
};

/// A nested relation: NF² schema plus tuples whose fields follow it.
class NestedRelation {
 public:
  explicit NestedRelation(std::shared_ptr<const Nf2Schema> schema)
      : schema_(std::move(schema)) {}

  const Nf2Schema& schema() const { return *schema_; }
  const std::vector<std::vector<Nf2Value>>& tuples() const { return tuples_; }
  void AddTuple(std::vector<Nf2Value> tuple) {
    tuples_.push_back(std::move(tuple));
  }
  size_t size() const { return tuples_.size(); }

  /// Total number of atomic fields, nested levels included.
  size_t TotalAtomicFields() const;

  /// Indented display form.
  std::string ToString(int indent = 0) const;

 private:
  std::shared_ptr<const Nf2Schema> schema_;
  std::vector<std::vector<Nf2Value>> tuples_;
};

/// Conversion report: `duplicated_atoms` counts the extra copies NF²'s
/// strict hierarchy forces when the molecule set shares subobjects — the
/// quantified form of the paper's Ch. 5 comparison ("[NF²] supports only
/// hierarchical complex objects without shared subobjects").
struct Nf2ConversionStats {
  size_t distinct_atoms = 0;
  size_t materialized_atoms = 0;
  size_t duplicated_atoms() const {
    return materialized_atoms - distinct_atoms;
  }
};

struct Nf2ConversionOptions {
  /// When false, conversion fails as soon as a shared subobject would have
  /// to be duplicated.
  bool allow_duplication = true;
};

/// Converts a molecule type into a nested relation. The description must be
/// a *tree* (every non-root node has exactly one incoming directed link) —
/// NF² cannot express the diamond shapes md_graph allows. Shared atoms are
/// duplicated per parent (or rejected, per options); attribute narrowing is
/// honoured.
Result<NestedRelation> MoleculeTypeToNf2(const Database& db,
                                         const MoleculeType& mt,
                                         const Nf2ConversionOptions& options = {},
                                         Nf2ConversionStats* stats = nullptr);

}  // namespace nf2
}  // namespace mad

#endif  // MAD_RELATIONAL_NF2_H_
