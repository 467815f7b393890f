#ifndef MAD_MOLECULE_RECURSIVE_H_
#define MAD_MOLECULE_RECURSIVE_H_

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/database.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {

/// A recursive molecule structure (the Ch. 5 outlook, [Schö89]): starting
/// from each atom of `atom_type`, transitively follow the reflexive link
/// type `link_type`.
///
/// Plain molecule-type descriptions reject reflexive link types — a
/// self-loop violates md_graph's acyclicity — so recursion is the data
/// model's dedicated mechanism for bill-of-material-style schemas. The
/// traversal `direction` selects the view: through a 'composition' link
/// type stored <super, sub>, kForward yields the parts explosion
/// (sub-component view) and kBackward the where-used parts implosion
/// (super-component view), exploiting the link type's symmetry.
struct RecursiveDescription {
  std::string atom_type;
  std::string link_type;
  LinkDirection direction = LinkDirection::kForward;
  /// Maximum traversal depth; -1 is unbounded. Termination on cyclic
  /// instance data is guaranteed by a visited set either way.
  int max_depth = -1;
};

/// A recursive molecule: the root atom plus the transitive closure of its
/// partners, stratified by traversal level (level 0 holds the root; an atom
/// appears at its *shortest* distance from the root).
class RecursiveMolecule {
 public:
  RecursiveMolecule(AtomId root) : levels_{{root}}, members_{root} {}

  AtomId root() const { return levels_[0][0]; }
  /// Levels of the breadth-first expansion; levels_[d] holds the atoms
  /// first reached after d link traversals.
  const std::vector<std::vector<AtomId>>& levels() const { return levels_; }
  /// Traversal depth actually reached.
  size_t depth() const { return levels_.size() - 1; }
  /// Number of distinct atoms (the root included).
  size_t atom_count() const { return members_.size(); }
  bool Contains(AtomId id) const { return members_.count(id) > 0; }
  /// The realised links, oriented parent→child in traversal order. Links
  /// between already-contained atoms (DAG sharing, cycles) are included.
  const std::vector<Link>& links() const { return links_; }

  // Construction interface used by the derivation engine.
  void AddLevel(std::vector<AtomId> level) { levels_.push_back(std::move(level)); }
  bool AddMember(AtomId id) { return members_.insert(id).second; }
  void AddLink(Link link) { links_.push_back(link); }

 private:
  std::vector<std::vector<AtomId>> levels_;
  std::unordered_set<AtomId> members_;
  std::vector<Link> links_;
};

/// Validates a recursive description: the atom type exists and the link
/// type is reflexive on it.
Status ValidateRecursiveDescription(const Database& db,
                                    const RecursiveDescription& rd);

/// Derives the recursive molecule rooted at `root` (breadth-first, cycle
/// safe). With `view`, membership and traversal resolve through the
/// versions visible at that epoch (DESIGN.md §11) instead of the head.
Result<RecursiveMolecule> DeriveRecursiveMoleculeFor(
    const Database& db, const RecursiveDescription& rd, AtomId root,
    std::optional<ReadView> view = std::nullopt);

/// Derives one recursive molecule per atom of the root atom type visible
/// at `view`, or at the latest committed epoch when none is given.
Result<std::vector<RecursiveMolecule>> DeriveRecursiveMolecules(
    const Database& db, const RecursiveDescription& rd,
    std::optional<ReadView> view = std::nullopt);

/// Materialises the recursion result as a first-class schema object
/// (recursive molecule types as data model objects, [Schö89]): defines a
/// new link type `closure_name` on `rd.atom_type` holding one link
/// <root, member> per closure membership (root excluded), and returns the
/// number of closure links inserted.
Result<size_t> PropagateClosureLinks(Database& db,
                                     const RecursiveDescription& rd,
                                     const std::string& closure_name);

}  // namespace mad

#endif  // MAD_MOLECULE_RECURSIVE_H_
