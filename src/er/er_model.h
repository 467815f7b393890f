#ifndef MAD_ER_ER_MODEL_H_
#define MAD_ER_ER_MODEL_H_

#include <map>
#include <string>
#include <vector>

#include "core/schema.h"
#include "relational/relation.h"
#include "storage/database.h"
#include "util/result.h"

namespace mad {
namespace er {

/// Relationship cardinalities of the (binary, attribute-free) ER model the
/// paper compares against in Ch. 5.
enum class Cardinality { kOneToOne, kOneToMany, kManyToMany };

const char* CardinalityName(Cardinality c);

/// An entity type: name plus attribute schema.
struct EntityType {
  std::string name;
  Schema attributes;
};

/// A binary relationship type between two entity types.
struct RelationshipType {
  std::string name;
  std::string left;
  std::string right;
  Cardinality cardinality = Cardinality::kManyToMany;
};

/// A binary ER schema (Fig. 1's upper diagram). Validation mirrors the MAD
/// catalog: unique names, known endpoints.
class ErSchema {
 public:
  Status AddEntityType(const std::string& name, Schema attributes);
  Status AddRelationshipType(const std::string& name, const std::string& left,
                             const std::string& right, Cardinality cardinality);

  const std::vector<EntityType>& entity_types() const { return entities_; }
  const std::vector<RelationshipType>& relationship_types() const {
    return relationships_;
  }

 private:
  std::vector<EntityType> entities_;
  std::map<std::string, size_t> entity_index_;
  std::vector<RelationshipType> relationships_;
  std::map<std::string, size_t> relationship_index_;
};

/// The paper's Ch. 2 claim, made executable: "there is a one-to-one mapping
/// from the ER model to the MAD model associating each entity type with an
/// atom type and each relationship type with a link type." Installs that
/// mapping into `db` (no auxiliary structures, regardless of cardinality).
Status MapToMad(const ErSchema& er, Database& db);

/// The classical ER → relational mapping for comparison: every entity type
/// becomes a relation with a surrogate `_id`; 1:1 and 1:n relationships
/// become a foreign-key column `_<rname>_ref` on the right-hand (many)
/// side; n:m relationships need an auxiliary relation `{_from, _to}`.
Result<rel::RelationalDatabase> MapToRelational(const ErSchema& er);

/// Schema-complexity comparison of the two mappings (the quantified form
/// of "the transformation to the relational model becomes quite
/// cumbersome").
struct MappingReport {
  size_t er_entity_types = 0;
  size_t er_relationship_types = 0;
  size_t mad_atom_types = 0;
  size_t mad_link_types = 0;
  size_t rel_relations = 0;
  size_t rel_auxiliary_relations = 0;
  size_t rel_foreign_key_columns = 0;
};

Result<MappingReport> CompareMappings(const ErSchema& er);

/// Builds the Fig. 1 cartographic ER schema (point/edge/area/net plus
/// state/city/river and their relationship types).
ErSchema Figure1ErSchema();

}  // namespace er
}  // namespace mad

#endif  // MAD_ER_ER_MODEL_H_
