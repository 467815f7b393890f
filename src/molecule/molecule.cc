#include "molecule/molecule.h"

#include <algorithm>

#include "util/string_util.h"

namespace mad {

bool Molecule::ContainsAtom(size_t node_index, AtomId id) const {
  const std::vector<AtomId>& atoms = atoms_per_node_[node_index];
  return std::find(atoms.begin(), atoms.end(), id) != atoms.end();
}

size_t Molecule::atom_count() const {
  size_t n = 0;
  for (const auto& group : atoms_per_node_) n += group.size();
  return n;
}

void Molecule::Project(const std::vector<size_t>& kept_nodes,
                       const std::vector<size_t>& edge_remap) {
  for (size_t k = 0; k < kept_nodes.size(); ++k) {
    if (kept_nodes[k] != k) {
      atoms_per_node_[k] = std::move(atoms_per_node_[kept_nodes[k]]);
    }
  }
  atoms_per_node_.resize(kept_nodes.size());
  size_t kept = 0;
  for (const MoleculeLink& link : links_) {
    const size_t edge = edge_remap[link.edge_index];
    if (edge != kDroppedEdge) {
      links_[kept++] = MoleculeLink{edge, link.parent, link.child};
    }
  }
  links_.resize(kept);
}

std::string Molecule::CanonicalKey() const {
  std::string key = StrCat({"r", std::to_string(root_.value)});
  for (size_t i = 0; i < atoms_per_node_.size(); ++i) {
    std::vector<AtomId> sorted = atoms_per_node_[i];
    std::sort(sorted.begin(), sorted.end());
    key += "|n" + std::to_string(i) + ":";
    for (AtomId id : sorted) {
      key += std::to_string(id.value);
      key += ",";
    }
  }
  std::vector<MoleculeLink> sorted_links = links_;
  std::sort(sorted_links.begin(), sorted_links.end());
  key += "|g:";
  for (const MoleculeLink& link : sorted_links) {
    key += std::to_string(link.edge_index) + "." +
           std::to_string(link.parent.value) + "." +
           std::to_string(link.child.value) + ",";
  }
  return key;
}

}  // namespace mad
