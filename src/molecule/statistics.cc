#include "molecule/statistics.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace mad {

MoleculeTypeStats ComputeMoleculeTypeStats(const MoleculeType& mt) {
  MoleculeTypeStats stats;
  stats.molecule_count = mt.size();
  const std::vector<MoleculeNode>& nodes = mt.description().nodes();
  stats.nodes.resize(nodes.size());

  std::vector<std::unordered_set<AtomId>> distinct_per_node(nodes.size());
  std::unordered_set<AtomId> distinct_overall;

  bool first = true;
  size_t total_atoms = 0;
  size_t total_links = 0;
  for (MoleculeView m : mt.molecules()) {
    size_t atoms = m.atom_count();
    size_t links = m.links().size();
    total_atoms += atoms;
    total_links += links;
    if (first) {
      stats.min_atoms = stats.max_atoms = atoms;
      stats.min_links = stats.max_links = links;
    } else {
      stats.min_atoms = std::min(stats.min_atoms, atoms);
      stats.max_atoms = std::max(stats.max_atoms, atoms);
      stats.min_links = std::min(stats.min_links, links);
      stats.max_links = std::max(stats.max_links, links);
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      const std::span<const AtomId> group = m.AtomsOf(i);
      NodeStats& ns = stats.nodes[i];
      size_t count = group.size();
      if (first) {
        ns.min_atoms = ns.max_atoms = count;
      } else {
        ns.min_atoms = std::min(ns.min_atoms, count);
        ns.max_atoms = std::max(ns.max_atoms, count);
      }
      ns.total_slots += count;
      for (AtomId id : group) {
        distinct_per_node[i].insert(id);
        distinct_overall.insert(id);
      }
    }
    first = false;
  }

  for (size_t i = 0; i < nodes.size(); ++i) {
    stats.nodes[i].label = nodes[i].label;
    stats.nodes[i].distinct_atoms = distinct_per_node[i].size();
    stats.nodes[i].avg_atoms =
        stats.molecule_count == 0
            ? 0.0
            : static_cast<double>(stats.nodes[i].total_slots) /
                  static_cast<double>(stats.molecule_count);
  }
  stats.total_atom_slots = total_atoms;
  stats.distinct_atoms = distinct_overall.size();
  if (stats.molecule_count > 0) {
    stats.avg_atoms = static_cast<double>(total_atoms) /
                      static_cast<double>(stats.molecule_count);
    stats.avg_links = static_cast<double>(total_links) /
                      static_cast<double>(stats.molecule_count);
  }
  return stats;
}

std::string FormatMoleculeTypeStats(const MoleculeTypeStats& stats) {
  std::ostringstream out;
  out << "molecules: " << stats.molecule_count << "\n";
  out << "atoms/molecule: min " << stats.min_atoms << ", avg "
      << stats.avg_atoms << ", max " << stats.max_atoms << "\n";
  out << "links/molecule: min " << stats.min_links << ", avg "
      << stats.avg_links << ", max " << stats.max_links << "\n";
  out << "distinct atoms: " << stats.distinct_atoms << " over "
      << stats.total_atom_slots
      << " slots (sharing factor " << stats.sharing_factor() << ")\n";
  for (const NodeStats& ns : stats.nodes) {
    out << "  " << ns.label << ": min " << ns.min_atoms << ", avg "
        << ns.avg_atoms << ", max " << ns.max_atoms << ", distinct "
        << ns.distinct_atoms << "\n";
  }
  return out.str();
}

}  // namespace mad
