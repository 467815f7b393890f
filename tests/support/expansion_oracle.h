#ifndef MAD_TESTS_SUPPORT_EXPANSION_ORACLE_H_
#define MAD_TESTS_SUPPORT_EXPANSION_ORACLE_H_

// Test-only oracle: closure expansion built from the public derivation
// calls, one closure and one component derivation per root. The MQL
// session's recursive SELECT with an expansion tail is held to it.

#include <optional>
#include <vector>

#include "molecule/description.h"
#include "molecule/molecule.h"
#include "molecule/recursive.h"
#include "storage/database.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {

/// A recursive molecule whose closure members are expanded by a plain
/// molecule structure — [Schö89]'s recursive molecule types as full data
/// model objects: the closure gives the skeleton, and every member atom
/// carries its own component molecule (e.g. each part of an explosion with
/// its suppliers and documents).
struct ExpandedRecursiveMolecule {
  RecursiveMolecule closure;
  /// One component molecule per distinct closure member (the root
  /// included), in closure level order.
  std::vector<Molecule> components;
};

/// Derives the recursive molecule for `root` and expands every member with
/// `expansion`, whose root node must be the recursion's atom type. A view
/// pins both the closure and the component derivations to one epoch.
Result<ExpandedRecursiveMolecule> DeriveExpandedRecursiveMoleculeFor(
    const Database& db, const RecursiveDescription& rd,
    const MoleculeDescription& expansion, AtomId root,
    std::optional<ReadView> view = std::nullopt);

/// One expanded recursive molecule per atom of the recursion's atom type.
Result<std::vector<ExpandedRecursiveMolecule>>
DeriveExpandedRecursiveMolecules(const Database& db,
                                 const RecursiveDescription& rd,
                                 const MoleculeDescription& expansion,
                                 std::optional<ReadView> view = std::nullopt);

}  // namespace mad

#endif  // MAD_TESTS_SUPPORT_EXPANSION_ORACLE_H_
