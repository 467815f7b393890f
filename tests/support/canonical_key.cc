#include "support/canonical_key.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace mad {
namespace reference {

std::string CanonicalKey(MoleculeView molecule) {
  std::string key = StrCat({"r", std::to_string(molecule.root().value)});
  for (size_t i = 0; i < molecule.node_count(); ++i) {
    std::vector<AtomId> sorted(molecule.AtomsOf(i).begin(),
                               molecule.AtomsOf(i).end());
    std::sort(sorted.begin(), sorted.end());
    key += "|n" + std::to_string(i) + ":";
    for (AtomId id : sorted) {
      key += std::to_string(id.value);
      key += ",";
    }
  }
  std::vector<MoleculeLink> sorted_links(molecule.links().begin(),
                                         molecule.links().end());
  std::sort(sorted_links.begin(), sorted_links.end());
  key += "|g:";
  for (const MoleculeLink& link : sorted_links) {
    key += std::to_string(link.edge_index) + "." +
           std::to_string(link.parent.value) + "." +
           std::to_string(link.child.value) + ",";
  }
  return key;
}

}  // namespace reference
}  // namespace mad
