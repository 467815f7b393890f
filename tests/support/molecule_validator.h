#ifndef MAD_TESTS_SUPPORT_MOLECULE_VALIDATOR_H_
#define MAD_TESTS_SUPPORT_MOLECULE_VALIDATOR_H_

// Test-only oracle: the mv_graph predicate of Def. 6, checked on a molecule
// the engine built. Derivation, the molecule algebra and propagation are
// held to it (Theorem 2: every result is again a set of valid molecules).

#include "molecule/description.h"
#include "molecule/molecule.h"
#include "storage/database.h"
#include "util/result.h"

namespace mad {

/// Checks the mv_graph predicate (Def. 6) on an already-built molecule:
/// the instance graph must be directed, acyclic, coherent, rooted at the
/// molecule's root atom, and each atom/link must exist in the database
/// under the description's types.
Status ValidateMolecule(const Database& db, const MoleculeDescription& md,
                        MoleculeView molecule);

}  // namespace mad

#endif  // MAD_TESTS_SUPPORT_MOLECULE_VALIDATOR_H_
