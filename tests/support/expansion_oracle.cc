#include "support/expansion_oracle.h"

#include <string>

#include "molecule/derivation.h"

namespace mad {

namespace {

Status CheckExpansionRoot(const RecursiveDescription& rd,
                          const MoleculeDescription& expansion) {
  if (expansion.root_node().type_name != rd.atom_type) {
    return Status::InvalidArgument(
        "expansion structure must be rooted at '" + rd.atom_type +
        "', found '" + expansion.root_node().type_name + "'");
  }
  return Status::OK();
}

}  // namespace

Result<ExpandedRecursiveMolecule> DeriveExpandedRecursiveMoleculeFor(
    const Database& db, const RecursiveDescription& rd,
    const MoleculeDescription& expansion, AtomId root,
    std::optional<ReadView> view) {
  MAD_RETURN_IF_ERROR(CheckExpansionRoot(rd, expansion));
  ExpandedRecursiveMolecule out{RecursiveMolecule(root), {}};
  MAD_ASSIGN_OR_RETURN(out.closure,
                       DeriveRecursiveMoleculeFor(db, rd, root, view));
  std::vector<AtomId> members;
  for (const auto& level : out.closure.levels()) {
    members.insert(members.end(), level.begin(), level.end());
  }
  DerivationOptions options;
  options.view = view;
  MAD_ASSIGN_OR_RETURN(
      out.components, DeriveMoleculesForRoots(db, expansion, members, options));
  return out;
}

Result<std::vector<ExpandedRecursiveMolecule>>
DeriveExpandedRecursiveMolecules(const Database& db,
                                 const RecursiveDescription& rd,
                                 const MoleculeDescription& expansion,
                                 std::optional<ReadView> view) {
  MAD_RETURN_IF_ERROR(ValidateRecursiveDescription(db, rd));
  MAD_RETURN_IF_ERROR(CheckExpansionRoot(rd, expansion));
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(rd.atom_type));
  std::vector<AtomId> roots;
  if (view.has_value() && !at->occurrence().HeadVisibleAt(*view)) {
    for (const Atom* atom : at->occurrence().SnapshotAt(*view)) {
      roots.push_back(atom->id);
    }
  } else {
    for (const Atom& atom : at->occurrence().atoms()) {
      roots.push_back(atom.id);
    }
  }
  std::vector<ExpandedRecursiveMolecule> out;
  out.reserve(roots.size());
  for (AtomId root : roots) {
    MAD_ASSIGN_OR_RETURN(
        ExpandedRecursiveMolecule m,
        DeriveExpandedRecursiveMoleculeFor(db, rd, expansion, root, view));
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace mad
