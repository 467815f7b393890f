#ifndef MAD_TESTS_SUPPORT_CANONICAL_KEY_H_
#define MAD_TESTS_SUPPORT_CANONICAL_KEY_H_

// Test-only oracle: a molecule's set-semantic identity as one string — the
// root, each node's atoms sorted, then the links sorted. Two molecules are
// the same molecule exactly when their keys are equal. The engine's
// molecule equality and its Ω, Δ and Ψ, which hash and compare the flat
// arrays of a MoleculeSet, are held to it.

#include <string>

#include "molecule/molecule.h"

namespace mad {
namespace reference {

/// Order-insensitive fingerprint of `molecule`: stable across molecules
/// built in different atom and link orders.
std::string CanonicalKey(MoleculeView molecule);

}  // namespace reference
}  // namespace mad

#endif  // MAD_TESTS_SUPPORT_CANONICAL_KEY_H_
