#include "molecule/propagation.h"

#include <unordered_set>

namespace mad {

Result<MoleculeType> PropagateMoleculeType(Database& db,
                                           const MoleculeType& mt,
                                           std::string result_name) {
  if (result_name.empty()) result_name = mt.name();
  const MoleculeDescription& md = mt.description();

  // 1. Renamed atom types, one per node, restricted to the atoms that
  //    actually occur in the molecule set (Def. 9: "the corresponding atoms
  //    are selected only from the elements within rsv").
  std::vector<std::string> new_type_names;
  new_type_names.reserve(md.nodes().size());
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    const MoleculeNode& node = md.nodes()[i];
    MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(node.type_name));

    Schema schema = at->description();
    std::vector<size_t> value_indexes;
    if (node.attributes.has_value()) {
      MAD_ASSIGN_OR_RETURN(schema, at->description().Project(*node.attributes));
      for (const std::string& attr : *node.attributes) {
        MAD_ASSIGN_OR_RETURN(size_t idx, at->description().IndexOf(attr));
        value_indexes.push_back(idx);
      }
    }

    std::string new_name =
        db.UniqueAtomTypeName(node.label + "@" + result_name);
    MAD_RETURN_IF_ERROR(db.DefineAtomType(new_name, std::move(schema)));
    new_type_names.push_back(new_name);

    std::unordered_set<AtomId> inserted;
    for (MoleculeView m : mt.molecules()) {
      for (AtomId id : m.AtomsOf(i)) {
        if (!inserted.insert(id).second) continue;  // shared subobject
        const Atom* atom = at->occurrence().Find(id);
        if (atom == nullptr) {
          return Status::Internal("molecule atom missing from store");
        }
        std::vector<Value> values;
        if (node.attributes.has_value()) {
          values.reserve(value_indexes.size());
          for (size_t idx : value_indexes) values.push_back(atom->values[idx]);
        } else {
          values = atom->values;
        }
        MAD_RETURN_IF_ERROR(db.InsertAtomWithId(new_name, id, std::move(values)));
      }
    }
  }

  // 2. Inherited link types, one per directed description link, restricted
  //    to the links appearing in the molecule set and stored parent→child.
  std::vector<std::string> new_link_names;
  new_link_names.reserve(md.links().size());
  for (size_t j = 0; j < md.links().size(); ++j) {
    const DirectedLink& dl = md.links()[j];
    MAD_ASSIGN_OR_RETURN(size_t from_idx, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(size_t to_idx, md.NodeIndex(dl.to));
    std::string new_name =
        db.UniqueLinkTypeName(dl.link_type + "@" + result_name);
    MAD_RETURN_IF_ERROR(db.DefineLinkType(new_name, new_type_names[from_idx],
                                          new_type_names[to_idx]));
    new_link_names.push_back(new_name);

    for (MoleculeView m : mt.molecules()) {
      for (const MoleculeLink& link : m.links()) {
        if (link.edge_index != j) continue;
        Status s = db.InsertLink(new_name, link.parent, link.child);
        // The same link may occur in several molecules (shared subobjects).
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
      }
    }
  }

  // 3. The equivalent description over the propagated types: original
  //    labels, forward orientation, narrowing already materialised.
  std::vector<MoleculeNode> nodes;
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    nodes.push_back(
        MoleculeNode{new_type_names[i], md.nodes()[i].label, std::nullopt});
  }
  std::vector<DirectedLink> links;
  for (size_t j = 0; j < md.links().size(); ++j) {
    links.push_back(DirectedLink{new_link_names[j], md.links()[j].from,
                                 md.links()[j].to, false});
  }
  MAD_ASSIGN_OR_RETURN(
      MoleculeDescription new_md,
      MoleculeDescription::Create(db, std::move(nodes), std::move(links)));

  // Molecules carry node/edge indexes only, and both lists kept their
  // order, so the occurrence transfers verbatim.
  return MoleculeType(std::move(result_name), std::move(new_md),
                      mt.molecules());
}

}  // namespace mad
