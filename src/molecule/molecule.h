#ifndef MAD_MOLECULE_MOLECULE_H_
#define MAD_MOLECULE_MOLECULE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/atom.h"

namespace mad {

/// One instantiated directed link inside a molecule: the link (parent,
/// child) realised through the description edge `edge_index` (an index into
/// MoleculeDescription::links()).
struct MoleculeLink {
  size_t edge_index;
  AtomId parent;
  AtomId child;

  auto operator<=>(const MoleculeLink&) const = default;
};

/// A molecule (Def. 6): the maximal coherent set of atoms and links
/// matching a molecule-type description, grown from one root atom.
/// Atom groups are parallel to the description's node list; links carry
/// their description edge index.
///
/// Molecules are plain values; two molecules of the same description
/// compare equal iff they contain the same atoms per node and the same
/// links (set semantics — CanonicalKey() gives a hashable form).
class Molecule {
 public:
  Molecule(AtomId root, size_t node_count)
      : root_(root), atoms_per_node_(node_count) {}

  AtomId root() const { return root_; }

  /// Atoms of node `node_index`, in derivation order.
  const std::vector<AtomId>& AtomsOf(size_t node_index) const {
    return atoms_per_node_[node_index];
  }
  std::vector<AtomId>& MutableAtomsOf(size_t node_index) {
    return atoms_per_node_[node_index];
  }

  size_t node_count() const { return atoms_per_node_.size(); }
  bool ContainsAtom(size_t node_index, AtomId id) const;

  /// Total number of atoms over all nodes. Shared atoms that occur under
  /// two different nodes count twice (they are distinct (type, atom)
  /// slots); within one node each atom counts once.
  size_t atom_count() const;

  const std::vector<MoleculeLink>& links() const { return links_; }
  void AddLink(MoleculeLink link) { links_.push_back(link); }

  /// Π on one molecule, in place: node k becomes old node `kept_nodes[k]`
  /// (ascending), and a link along old edge e stays, renumbered to
  /// `edge_remap[e]`, unless that is kDroppedEdge.
  static constexpr size_t kDroppedEdge = static_cast<size_t>(-1);
  void Project(const std::vector<size_t>& kept_nodes,
               const std::vector<size_t>& edge_remap);

  /// Order-insensitive fingerprint used for set semantics in Ω, Δ, Ψ and
  /// for dedup. Stable across molecules built in different atom orders.
  std::string CanonicalKey() const;

  bool operator==(const Molecule& other) const {
    return CanonicalKey() == other.CanonicalKey();
  }

 private:
  AtomId root_;
  std::vector<std::vector<AtomId>> atoms_per_node_;
  std::vector<MoleculeLink> links_;
};

}  // namespace mad

#endif  // MAD_MOLECULE_MOLECULE_H_
