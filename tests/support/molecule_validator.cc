#include "support/molecule_validator.h"

#include <string>

#include "util/digraph.h"

namespace mad {

Status ValidateMolecule(const Database& db, const MoleculeDescription& md,
                        MoleculeView molecule) {
  if (molecule.node_count() != md.nodes().size()) {
    return Status::InvalidArgument(
        "molecule has a different node count than its description");
  }
  MAD_ASSIGN_OR_RETURN(size_t root_idx, md.NodeIndex(md.root_label()));

  // The root group holds exactly the root atom.
  const std::span<const AtomId> root_group = molecule.AtomsOf(root_idx);
  if (root_group.size() != 1 || root_group[0] != molecule.root()) {
    return Status::ConstraintViolation(
        "molecule root group must hold exactly the root atom");
  }

  // Every atom exists under its node's atom type.
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    for (AtomId id : molecule.AtomsOf(i)) {
      if (!at->occurrence().Contains(id)) {
        return Status::ConstraintViolation(
            "molecule atom #" + std::to_string(id.value) +
            " is not in atom type '" + md.nodes()[i].type_name + "'");
      }
    }
  }

  // Every link is realised in the database with the right orientation and
  // connects contained atoms; build the instance graph along the way.
  Digraph instance;
  auto node_key = [](size_t node_idx, AtomId id) {
    return std::to_string(node_idx) + ":" + std::to_string(id.value);
  };
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    for (AtomId id : molecule.AtomsOf(i)) instance.AddNode(node_key(i, id));
  }
  for (const MoleculeLink& link : molecule.links()) {
    if (link.edge_index >= md.links().size()) {
      return Status::ConstraintViolation("molecule link has bad edge index");
    }
    const DirectedLink& dl = md.links()[link.edge_index];
    MAD_ASSIGN_OR_RETURN(size_t from_idx, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(size_t to_idx, md.NodeIndex(dl.to));
    if (!molecule.ContainsAtom(from_idx, link.parent) ||
        !molecule.ContainsAtom(to_idx, link.child)) {
      return Status::ConstraintViolation(
          "molecule link endpoints are not molecule atoms");
    }
    MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(dl.link_type));
    bool present = dl.reverse
                       ? lt->occurrence().Contains(link.child, link.parent)
                       : lt->occurrence().Contains(link.parent, link.child);
    if (!present) {
      return Status::ConstraintViolation(
          "molecule link is not present in link type '" + dl.link_type + "'");
    }
    MAD_RETURN_IF_ERROR(instance.AddEdge(dl.link_type,
                                         node_key(from_idx, link.parent),
                                         node_key(to_idx, link.child)));
  }

  // mv_graph: the instance graph is a coherent DAG rooted at the root atom.
  MAD_ASSIGN_OR_RETURN(std::string instance_root, instance.CheckRootedDag());
  if (instance_root != node_key(root_idx, molecule.root())) {
    return Status::ConstraintViolation(
        "molecule instance graph is not rooted at the root atom");
  }
  return Status::OK();
}

}  // namespace mad
