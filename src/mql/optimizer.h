#ifndef MAD_MQL_OPTIMIZER_H_
#define MAD_MQL_OPTIMIZER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/value.h"
#include "expr/compile.h"
#include "expr/expr.h"
#include "molecule/description.h"
#include "molecule/operations.h"
#include "molecule/recursive.h"
#include "mql/ast.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {
namespace mql {

/// The WHERE conjuncts decidable on one description node alone, AND-joined
/// in their original order. The derivation engine evaluates the predicate
/// the moment the node's group completes, rejecting the molecule before
/// downstream nodes expand.
struct NodeFilter {
  size_t node_index = 0;
  expr::ExprPtr predicate;
};

/// Root seeds narrow the derivation's fan-out to the roots that can pass
/// the root filter's *first* conjunct. Only the first qualifies: AND
/// evaluates left to right with short-circuit, so dropping roots a later
/// conjunct rejects could suppress an earlier conjunct's runtime error, and
/// an index would change answers. The root's node filter still verifies the
/// conjunct, so a seed only narrows.
///
/// An indexed equality `root.attr = literal`, the literal of the attribute's
/// type, seeds from the AttributeIndex bucket instead of scanning the whole
/// occurrence.
struct IndexSeed {
  const AttributeIndex* index = nullptr;
  std::string attribute;
  Value value;
};

/// Any other comparison `attr ⊕ literal` seeds from the batch kernel's pass
/// bitmap over the whole root column. The executor drops the seed when the
/// kernel reports an error row: that row's error must surface through
/// ordinary evaluation.
struct ScanSeed {
  std::string attribute;
  size_t value_slot = 0;
  expr::CompareOp op = expr::CompareOp::kEq;
  Value value;
  bool attr_on_left = true;
  /// The conjunct as written, for EXPLAIN.
  std::string display;
};

/// A WHERE predicate split for qualification pushdown (the restriction
/// rewrite the paper's outlook anticipates: "exploit the algebra to ...
/// enhance query transformation and query optimization").
struct PushdownPlan {
  /// Single-node conjuncts, grouped per node, ascending node index. The
  /// root node's filter (if any) is an ordinary entry.
  std::vector<NodeFilter> node_filters;
  /// Conjuncts needing more than one node (plus constants), AND-joined in
  /// original order; null when everything was pushed.
  expr::ExprPtr residual;
  /// The seed matched on the root filter's first conjunct: at most one of
  /// the two is set (an index bucket beats a full-column scan).
  std::optional<IndexSeed> seed;
  std::optional<ScanSeed> scan_seed;

  bool HasPushdown() const {
    return !node_filters.empty() || seed.has_value() || scan_seed.has_value();
  }
};

/// Splits the top-level conjunction of `predicate` per description node: a
/// conjunct whose references (attributes, COUNT and FORALL quantifiers) all
/// bind to one node becomes that node's filter; everything else — mixed
/// conjuncts, disjunctions over several nodes, constants — stays residual.
/// A null predicate yields an empty plan.
Result<PushdownPlan> PlanPredicatePushdown(const Database& db,
                                           const MoleculeDescription& md,
                                           const expr::ExprPtr& predicate);

/// Description node indices referenced by `node` — attribute references
/// plus COUNT/FORALL quantifiers — sorted and unique. Attribute references
/// resolve by expr::ResolveAttributeNode, the compiler's own rule, so a
/// predicate the compiler accepts always classifies.
Result<std::vector<size_t>> ReferencedNodes(const Database& db,
                                            const MoleculeDescription& md,
                                            const expr::Expr& node);

/// The physical plan of one SELECT: the Ch. 4 translation a, then Σ, then
/// Π of a molecule structure, or the Ch. 5 closure, then Σ, then the
/// expansion tail of a recursive one. PlanSelect takes every decision at the
/// statement's view; the session executes the plan, EXPLAIN renders it, and
/// EXPLAIN ANALYZE executes it under a trace, so EXPLAIN prints what runs.
///
/// The compiled programs borrow the atom stores and the descriptions below
/// (held by pointer, so the plan stays movable): plan, execute and drop a
/// plan under one shared lock on the database mutex.
struct SelectPlan {
  /// Name of the result molecule type: the registered or FROM name, or
  /// "query".
  std::string name;
  /// Plain form: the description a derives.
  std::unique_ptr<const MoleculeDescription> description;
  /// Recursive form: the closure and its optional per-member expansion.
  std::optional<RecursiveDescription> recursive;
  std::unique_ptr<const MoleculeDescription> expansion;
  /// The WHERE clause as written, or null.
  expr::ExprPtr where;
  /// Plain form: the WHERE split per node. Seeds are kept only where they
  /// apply at the view: the index and the columns mirror the head, so a
  /// root store holding versions the view must not see is never seeded.
  PushdownPlan pushdown;
  /// pushdown.node_filters (same order) and pushdown.residual, compiled.
  std::vector<expr::CompiledPredicate> node_programs;
  std::optional<expr::CompiledPredicate> residual_program;
  /// Recursive form: the WHERE compiled over `closure`, the two-node
  /// description root -> member. `root.attr` binds the closure's root;
  /// `attr` and `<atom type>.attr` bind its members, existentially.
  std::unique_ptr<const MoleculeDescription> closure;
  std::optional<expr::CompiledPredicate> closure_program;
  /// Π; nullopt for SELECT ALL.
  std::optional<MoleculeProjectionSpec> projection;
};

/// Plans `stmt`. A bare FROM identifier names a molecule type in `registry`
/// when one is registered under it. PRECONDITION: the caller holds a shared
/// lock on db.mutex() until the plan is dropped, and `view` is the view
/// the plan will execute at.
Result<SelectPlan> PlanSelect(
    const Database& db,
    const std::map<std::string, MoleculeDescription>& registry,
    const SelectStatement& stmt, const ReadView& view);

/// EXPLAIN's rendering of a plan: one line per algebra operator, with the
/// pushdown, seed and compiled-program details of Σ.
std::string FormatSelectPlan(const SelectPlan& plan);

}  // namespace mql
}  // namespace mad

#endif  // MAD_MQL_OPTIMIZER_H_
