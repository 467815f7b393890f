#ifndef MAD_MOLECULE_OPERATIONS_H_
#define MAD_MOLECULE_OPERATIONS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "molecule/molecule_type.h"
#include "storage/database.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {

/// Molecule-type restriction Σ[restr(md)](mt) (Def. 10): keeps the
/// molecules satisfying the qualification formula. The description is
/// unchanged (rsd = md). The formula is compiled once into a flat predicate
/// program and evaluated per molecule, in input order; the first failing
/// molecule's error is returned. With `view`, the predicate program
/// resolves molecule atoms through the versions visible at that epoch
/// (DESIGN.md §11) — pass the view the operand was derived at.
Result<MoleculeType> RestrictMolecules(
    const Database& db, const MoleculeType& mt, const expr::ExprPtr& predicate,
    std::string result_name, std::optional<ReadView> view = std::nullopt);

/// Specification of a molecule-type projection Π: which node labels to
/// keep (must include the root and stay coherent) and, optionally, which
/// attributes stay visible per kept label.
struct MoleculeProjectionSpec {
  std::vector<std::string> keep_labels;
  std::map<std::string, std::vector<std::string>> attributes;
};

/// Molecule-type projection Π: restricts the description to a
/// root-preserving coherent sub-DAG and optionally narrows the visible
/// attributes per node. Atoms keep their identity. The operand is taken by
/// value and its molecules are moved into the result: when every node and
/// edge survives only the description changes. Pass an expiring operand
/// (std::move) to skip the copy.
Result<MoleculeType> ProjectMolecules(const Database& db, MoleculeType mt,
                                      const MoleculeProjectionSpec& spec,
                                      std::string result_name);

/// Molecule-type union Ω: requires structurally identical descriptions;
/// set semantics on molecules (identical atom+link sets deduplicate).
Result<MoleculeType> UnionMolecules(const MoleculeType& left,
                                    const MoleculeType& right,
                                    std::string result_name);

/// Molecule-type difference Δ: molecules of `left` not present in `right`.
Result<MoleculeType> DifferenceMolecules(const MoleculeType& left,
                                         const MoleculeType& right,
                                         std::string result_name);

/// Derived intersection Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)) — implemented
/// literally with the paper's recipe (Theorem 3 commentary).
Result<MoleculeType> IntersectMolecules(const MoleculeType& left,
                                        const MoleculeType& right,
                                        std::string result_name);

/// Molecule-type cartesian product X: couples every pair of operand
/// molecules under a synthetic pair-root atom. Because md_graph demands a
/// single root, the operation enlarges the database with a fresh pair atom
/// type (empty schema) and two link types connecting it to the operand
/// roots; right-hand node labels are suffixed with "#2" on collision.
Result<MoleculeType> CartesianProductMolecules(Database& db,
                                               const MoleculeType& left,
                                               const MoleculeType& right,
                                               std::string result_name);

}  // namespace mad

#endif  // MAD_MOLECULE_OPERATIONS_H_
