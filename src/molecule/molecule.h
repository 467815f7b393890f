#ifndef MAD_MOLECULE_MOLECULE_H_
#define MAD_MOLECULE_MOLECULE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/atom.h"

namespace mad {

/// One instantiated directed link inside a molecule: the link (parent,
/// child) realised through the description edge `edge_index` (an index into
/// MoleculeDescription::links()).
struct MoleculeLink {
  uint32_t edge_index;
  AtomId parent;
  AtomId child;

  auto operator<=>(const MoleculeLink&) const = default;
};

/// A molecule (Def. 6), read in place: the maximal coherent set of atoms
/// and links matching a molecule-type description, grown from one root
/// atom. Atom groups are parallel to the description's node list, in
/// derivation order, and lie back to back: group i spans
/// atoms[offsets[i] .. offsets[i + 1]). The arrays belong to the
/// MoleculeSet or Molecule the view was taken from.
///
/// Two molecules are equal iff they have the same root, the same atoms per
/// node and the same links, each group and the link list compared as a
/// multiset: set semantics, whatever order they were built in.
class MoleculeView {
 public:
  MoleculeView() = default;
  MoleculeView(AtomId root, size_t node_count, const uint32_t* offsets,
               const AtomId* atoms, std::span<const MoleculeLink> links)
      : root_(root), node_count_(node_count), offsets_(offsets),
        atoms_(atoms), links_(links) {}

  AtomId root() const { return root_; }
  size_t node_count() const { return node_count_; }
  std::span<const AtomId> AtomsOf(size_t node_index) const {
    return {atoms_ + offsets_[node_index],
            offsets_[node_index + 1] - offsets_[node_index]};
  }
  /// Every atom, group after group.
  std::span<const AtomId> atoms() const {
    return {atoms_ + offsets_[0], atom_count()};
  }
  std::span<const MoleculeLink> links() const { return links_; }
  bool ContainsAtom(size_t node_index, AtomId id) const;
  /// Total number of atoms over all nodes. Shared atoms that occur under
  /// two different nodes count twice (they are distinct (type, atom)
  /// slots); within one node each atom counts once.
  size_t atom_count() const { return offsets_[node_count_] - offsets_[0]; }

  /// Order-insensitive hash: equal molecules hash equal.
  uint64_t Fingerprint() const;
  friend bool operator==(MoleculeView a, MoleculeView b);

 private:
  AtomId root_;
  size_t node_count_ = 0;
  const uint32_t* offsets_ = nullptr;
  const AtomId* atoms_ = nullptr;
  std::span<const MoleculeLink> links_;
};

/// One molecule as an owning value, in a MoleculeSet entry's layout: what
/// tests and hand-made operands build atom by atom, and what the
/// single-molecule derive calls return.
class Molecule {
 public:
  Molecule(AtomId root, size_t node_count)
      : root_(root), offsets_(node_count + 1, 0) {}
  explicit Molecule(MoleculeView m);

  operator MoleculeView() const {
    return {root_, node_count(), offsets_.data(), atoms_.data(), links()};
  }
  AtomId root() const { return root_; }
  size_t node_count() const { return offsets_.size() - 1; }
  std::span<const AtomId> AtomsOf(size_t node_index) const {
    return MoleculeView(*this).AtomsOf(node_index);
  }
  std::span<const MoleculeLink> links() const { return links_; }
  bool ContainsAtom(size_t node_index, AtomId id) const {
    return MoleculeView(*this).ContainsAtom(node_index, id);
  }
  size_t atom_count() const { return atoms_.size(); }

  /// Appends `id` to the group of node `node_index`.
  void AddAtom(size_t node_index, AtomId id);
  void AddLink(MoleculeLink link) { links_.push_back(link); }
  bool operator==(const Molecule& other) const {
    return MoleculeView(*this) == MoleculeView(other);
  }

 private:
  AtomId root_;
  std::vector<uint32_t> offsets_;
  std::vector<AtomId> atoms_;
  std::vector<MoleculeLink> links_;
};

/// A molecule-type occurrence (Def. 7) in five flat arrays instead of one
/// heap block per group: per molecule its root and a range in one link
/// array, per molecule and node an offset into one atom array (DESIGN.md
/// §6). A set holds fewer than 2^32 atom slots and links.
///
/// A molecule is appended with StartMolecule, then for every node in
/// description order its atoms (AddAtom) and CloseGroup, then its links
/// (AddLink) and CloseMolecule.
class MoleculeSet {
 public:
  explicit MoleculeSet(size_t node_count = 0) : node_count_(node_count) {}
  /// Copies `molecules`, each with `node_count` nodes, into one set.
  MoleculeSet(const std::vector<Molecule>& molecules, size_t node_count);

  size_t size() const { return roots_.size(); }
  bool empty() const { return roots_.empty(); }
  size_t node_count() const { return node_count_; }
  MoleculeView operator[](size_t i) const {
    return {roots_[i], node_count_, &atom_offsets_[i * node_count_],
            atoms_.data(),
            {links_.data() + link_offsets_[i],
             link_offsets_[i + 1] - link_offsets_[i]}};
  }

  class Iterator {
   public:
    Iterator(const MoleculeSet* set, size_t i) : set_(set), i_(i) {}
    MoleculeView operator*() const { return (*set_)[i_]; }
    Iterator& operator++() { return ++i_, *this; }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    const MoleculeSet* set_;
    size_t i_;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

  void StartMolecule(AtomId root) { roots_.push_back(root); }
  void AddAtom(AtomId id) { atoms_.push_back(id); }
  void CloseGroup() { atom_offsets_.push_back(atoms_.size()); }
  void AddLink(MoleculeLink link) { links_.push_back(link); }
  void CloseMolecule() { link_offsets_.push_back(links_.size()); }
  /// Appends a copy of `m`, which has node_count() nodes.
  void Append(MoleculeView m);
  /// Empties the set for molecules of `node_count` nodes, keeping the
  /// arrays' capacity.
  void Reset(size_t node_count);

  /// σ's compaction: the molecules i with keep[i] nonzero, in order.
  MoleculeSet Subset(const std::vector<char>& keep) const;
  /// Π, in place: node k becomes old node `kept_nodes[k]` (ascending), and
  /// a link along old edge e stays, renumbered to `edge_remap[e]`, unless
  /// that is kDroppedEdge.
  static constexpr uint32_t kDroppedEdge = UINT32_MAX;
  void Project(const std::vector<size_t>& kept_nodes,
               const std::vector<uint32_t>& edge_remap);

  /// Each molecule as an owning value.
  std::vector<Molecule> ToMolecules() const;

 private:
  size_t node_count_;
  std::vector<AtomId> roots_;
  /// size() * node_count_ + 1 entries: group (m, i) starts at entry
  /// m * node_count_ + i and ends where the next one starts.
  std::vector<uint32_t> atom_offsets_{0};
  std::vector<AtomId> atoms_;
  /// size() + 1 entries: molecule m's links end where m + 1's start.
  std::vector<uint32_t> link_offsets_{0};
  std::vector<MoleculeLink> links_;
};

}  // namespace mad

#endif  // MAD_MOLECULE_MOLECULE_H_
