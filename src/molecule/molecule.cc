#include "molecule/molecule.h"

#include <algorithm>

namespace mad {

namespace {

/// splitmix64's finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Whether `a` and `b` hold the same elements, counted with multiplicity.
/// Molecules derived by one engine list them in the same order, so the
/// sort runs only when a plain comparison fails.
template <typename T>
bool SameMultiset(std::span<const T> a, std::span<const T> b) {
  if (std::ranges::equal(a, b)) return true;
  if (a.size() != b.size()) return false;
  std::vector<T> x(a.begin(), a.end());
  std::vector<T> y(b.begin(), b.end());
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

}  // namespace

bool MoleculeView::ContainsAtom(size_t node_index, AtomId id) const {
  const std::span<const AtomId> atoms = AtomsOf(node_index);
  return std::find(atoms.begin(), atoms.end(), id) != atoms.end();
}

uint64_t MoleculeView::Fingerprint() const {
  // A sum of per-element hashes does not depend on element order.
  uint64_t h = Mix(root_.value);
  for (size_t i = 0; i < node_count_; ++i) {
    const uint64_t node = Mix(i);
    for (AtomId id : AtomsOf(i)) h += Mix(id.value ^ node);
  }
  for (const MoleculeLink& link : links_) {
    h += Mix(Mix(link.parent.value ^ (uint64_t{link.edge_index} << 40)) ^
             link.child.value);
  }
  return h;
}

bool operator==(MoleculeView a, MoleculeView b) {
  if (a.root_ != b.root_ || a.node_count_ != b.node_count_) return false;
  for (size_t i = 0; i < a.node_count_; ++i) {
    if (!SameMultiset(a.AtomsOf(i), b.AtomsOf(i))) return false;
  }
  return SameMultiset(a.links_, b.links_);
}

Molecule::Molecule(MoleculeView m)
    : root_(m.root()),
      offsets_(m.node_count() + 1, 0),
      atoms_(m.atoms().begin(), m.atoms().end()),
      links_(m.links().begin(), m.links().end()) {
  for (size_t i = 0; i < m.node_count(); ++i) {
    offsets_[i + 1] = offsets_[i] + m.AtomsOf(i).size();
  }
}

void Molecule::AddAtom(size_t node_index, AtomId id) {
  atoms_.insert(atoms_.begin() + offsets_[node_index + 1], id);
  for (size_t k = node_index + 1; k < offsets_.size(); ++k) ++offsets_[k];
}

MoleculeSet::MoleculeSet(const std::vector<Molecule>& molecules,
                         size_t node_count)
    : node_count_(node_count) {
  for (const Molecule& m : molecules) Append(m);
}

void MoleculeSet::Append(MoleculeView m) {
  StartMolecule(m.root());
  atoms_.insert(atoms_.end(), m.atoms().begin(), m.atoms().end());
  for (size_t i = 0; i < node_count_; ++i) {
    atom_offsets_.push_back(atom_offsets_.back() + m.AtomsOf(i).size());
  }
  links_.insert(links_.end(), m.links().begin(), m.links().end());
  CloseMolecule();
}

void MoleculeSet::Reset(size_t node_count) {
  node_count_ = node_count;
  roots_.clear();
  atom_offsets_.resize(1);
  atoms_.clear();
  link_offsets_.resize(1);
  links_.clear();
}

MoleculeSet MoleculeSet::Subset(const std::vector<char>& keep) const {
  MoleculeSet kept(node_count_);
  for (size_t i = 0; i < size(); ++i) {
    if (keep[i]) kept.Append((*this)[i]);
  }
  return kept;
}

void MoleculeSet::Project(const std::vector<size_t>& kept_nodes,
                          const std::vector<uint32_t>& edge_remap) {
  // Atoms and links only slide down, and so do offsets: new offset
  // m * k + j + 1 is written below every old one still to be read (those
  // of later groups and molecules), or onto one holding the same value —
  // with every node kept nothing moves, and in molecule 0 a kept prefix of
  // nodes stays in place.
  const size_t n = node_count_;
  const size_t k = kept_nodes.size();
  uint32_t atom_out = 0, link_in = 0, link_out = 0;
  for (size_t m = 0; m < size(); ++m) {
    const uint32_t* old = &atom_offsets_[m * n];
    for (size_t j = 0; j < k; ++j) {
      for (uint32_t a = old[kept_nodes[j]]; a < old[kept_nodes[j] + 1]; ++a) {
        atoms_[atom_out++] = atoms_[a];
      }
      atom_offsets_[m * k + j + 1] = atom_out;
    }
    for (const uint32_t link_end = link_offsets_[m + 1]; link_in < link_end;
         ++link_in) {
      const MoleculeLink link = links_[link_in];
      const uint32_t edge = edge_remap[link.edge_index];
      if (edge != kDroppedEdge) {
        links_[link_out++] = MoleculeLink{edge, link.parent, link.child};
      }
    }
    link_offsets_[m + 1] = link_out;
  }
  node_count_ = k;
  atom_offsets_.resize(size() * k + 1);
  atoms_.resize(atom_out);
  links_.resize(link_out);
}

std::vector<Molecule> MoleculeSet::ToMolecules() const {
  std::vector<Molecule> molecules;
  molecules.reserve(size());
  for (MoleculeView m : *this) molecules.emplace_back(m);
  return molecules;
}

}  // namespace mad
