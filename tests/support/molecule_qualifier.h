#ifndef MAD_TESTS_SUPPORT_MOLECULE_QUALIFIER_H_
#define MAD_TESTS_SUPPORT_MOLECULE_QUALIFIER_H_

// Test-only oracle: the tree interpreter the compiled predicate engine
// (expr/compile.h) is held to, bit for bit. Production code evaluates
// qualification through CompiledPredicate only.

#include <map>
#include <string>
#include <utility>

#include "expr/expr.h"
#include "molecule/description.h"
#include "molecule/molecule.h"
#include "storage/database.h"
#include "util/result.h"

namespace mad {

/// Evaluates qualification formulas over molecules — the predicate
/// qual(m, restr(md)) of the molecule-type restriction Σ (Def. 10).
///
/// Semantics: boolean connectives combine recursively; each *comparison* is
/// satisfied iff there exist atoms in the molecule — one per atom-type node
/// the comparison references — making it true (the Ch. 4 example
/// `point.name = 'pn'` holds iff some point atom of the molecule is named
/// 'pn'). Attribute references resolve against the description: an explicit
/// qualifier matches a node label (or, uniquely, an atom-type name); an
/// unqualified attribute must occur in exactly one node's visible schema.
class MoleculeQualifier {
 public:
  /// Resolves and validates `predicate` against `md`. The database and the
  /// description must outlive the qualifier.
  static Result<MoleculeQualifier> Create(const Database& db,
                                          const MoleculeDescription& md,
                                          expr::ExprPtr predicate);

  /// True iff the molecule satisfies the predicate.
  Result<bool> Matches(MoleculeView molecule) const;

  /// Evaluates an *already resolved* predicate (label-qualified attribute
  /// references, COUNT/FORALL qualifiers that are node labels) over one
  /// molecule with the qualifier's molecule-scope semantics. This is the
  /// seam the differential tests drive directly: unlike Matches(), the
  /// expression need not be the one validated by Create(), so unresolved
  /// qualifiers must surface as Status errors, never as exceptions.
  Result<bool> EvalResolved(const expr::Expr& expr,
                            MoleculeView molecule) const;

  /// The predicate with every attribute reference rewritten to
  /// label-qualified form.
  const expr::ExprPtr& resolved_predicate() const { return resolved_; }

 private:
  MoleculeQualifier() = default;

  /// Checked label_info_ lookup: a qualifier that is not a node label of
  /// the description yields InvalidArgument instead of std::out_of_range.
  Result<const std::pair<size_t, const Schema*>*> FindLabel(
      const std::string& label) const;

  Result<bool> EvalBoolean(const expr::Expr& expr,
                           MoleculeView molecule) const;
  Result<bool> EvalExistential(const expr::Expr& expr,
                               MoleculeView molecule) const;
  Result<bool> EvalForAll(const expr::Expr& expr,
                          MoleculeView molecule) const;
  /// Copies `expr` with every COUNT(label) replaced by its value in
  /// `molecule`.
  Result<expr::ExprPtr> SubstituteCounts(const expr::Expr& expr,
                                         MoleculeView molecule) const;

  const Database* db_ = nullptr;
  const MoleculeDescription* md_ = nullptr;
  expr::ExprPtr resolved_;
  /// label -> (node index, schema of the node's atom type).
  std::map<std::string, std::pair<size_t, const Schema*>> label_info_;
};

}  // namespace mad

#endif  // MAD_TESTS_SUPPORT_MOLECULE_QUALIFIER_H_
