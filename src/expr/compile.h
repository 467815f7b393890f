#ifndef MAD_EXPR_COMPILE_H_
#define MAD_EXPR_COMPILE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/atom.h"
#include "core/schema.h"
#include "core/value.h"
#include "expr/expr.h"
#include "expr/kernels.h"
#include "molecule/description.h"
#include "molecule/molecule.h"
#include "storage/atom_store.h"
#include "storage/database.h"
#include "util/result.h"

namespace mad {
namespace expr {

/// A qualification formula compiled once against a molecule description
/// into a flat postfix program: attribute references become pre-resolved
/// (loop slot, value slot) pairs, literals live in a pool, COUNT(label) is
/// an opcode reading a group size, and the existential / universal binding
/// loops of molecule-scope evaluation (Def. 10) run over dense `const
/// Atom*` rows. Per-molecule evaluation does no shared_ptr tree walks, no
/// string lookups, and no SubstituteCounts expression rebuilds.
///
/// Semantics contract: bit-for-bit identical to the tree interpreter the
/// differential tests keep as their oracle — same verdicts, same error
/// messages, same error timing. The shared pieces (ApplyCompare /
/// ApplyArith / RequireBool in expr/eval.h, ResolveQualification /
/// CollectQualifierLabels below) make the equivalence structural rather
/// than coincidental.
///
/// Lifetime: a compiled predicate borrows the database's atom stores and
/// schemas. It stays valid only while the database is not mutated — the
/// same contract as the derivation engine's frozen snapshot. Evaluation is
/// const and thread-safe provided each thread uses its own Scratch.
class CompiledPredicate {
 public:
  /// Execution-mode selector for Compile. kAuto plans batch execution for
  /// every eligible leaf (single binding loop, no COUNT, head visible at the
  /// compile view); kScalar forces the per-binding scalar engine — the
  /// differential tests pit the two against each other and against the
  /// interpreter.
  enum class BatchMode { kAuto, kScalar };

  /// Dense view of one description node's atoms. `data` may be null when
  /// `size` is 0, and also for nodes the program only COUNTs (the binding
  /// loops never touch them).
  struct AtomSpan {
    const Atom* const* data = nullptr;
    size_t size = 0;
  };

  /// Reusable per-thread evaluation state (operand stack, temporaries,
  /// bound-atom slots, dense-row buffers). Grown on first use, then
  /// allocation-free across evaluations.
  class Scratch {
   private:
    friend class CompiledPredicate;
    std::vector<const Value*> stack_;
    std::vector<Value> temps_;
    std::vector<const Atom*> bound_;
    std::vector<std::vector<const Atom*>> rows_;
    std::vector<AtomSpan> spans_;
  };

  /// Resolves `predicate` against `md` (ResolveQualification) and compiles
  /// it. The database and the description must outlive the compiled
  /// predicate. With `view`, the dense row tables are built from the
  /// versions visible at that epoch instead of the head (DESIGN.md §11), so
  /// evaluation binds exactly the atoms a reader pinned there would see.
  static Result<CompiledPredicate> Compile(
      const Database& db, const MoleculeDescription& md,
      const ExprPtr& predicate, std::optional<ReadView> view = std::nullopt,
      BatchMode mode = BatchMode::kAuto);

  /// Evaluates over `groups`, an array of md.nodes().size() spans (one per
  /// description node, in node order). A null row pointer inside a span
  /// reproduces the interpreter's "molecule atom missing from store" error
  /// at the moment that atom would be bound.
  Result<bool> Eval(const AtomSpan* groups, Scratch& scratch) const;

  /// Evaluates over a materialized molecule, resolving atom ids through the
  /// stores captured at compile time into dense rows held in `scratch`.
  Result<bool> EvalMolecule(MoleculeView molecule, Scratch& scratch) const;

  /// The predicate with every attribute reference rewritten to
  /// label-qualified form (shared vocabulary with EXPLAIN and the
  /// interpreter oracle).
  const ExprPtr& resolved_predicate() const { return resolved_; }

  /// Description node indices the binding loops iterate (sorted, unique).
  const std::vector<size_t>& loop_nodes() const { return loop_node_set_; }

  size_t instruction_count() const { return code_.size(); }
  size_t literal_count() const { return literals_.size(); }
  size_t node_count() const { return stores_.size(); }

  /// Number of leaves planned for batch (bitmap) execution; 0 means the
  /// predicate runs fully scalar.
  size_t batch_leaf_count() const { return leaf_batches_.size(); }

  /// One-line program summary for EXPLAIN, e.g.
  /// "7 ops, 2 literals, loops over {point}, batch[1/1 leaves]" — the
  /// batch/scalar suffix reports the planned execution mode.
  std::string Summary() const;

 private:
  enum class Op : uint8_t {
    kPushLiteral,  // a = literal pool index
    kPushAttr,     // a = binding loop slot, b = attribute value slot
    kPushCount,    // a = description node index; pushes the group size
    kCompare,      // a = CompareOp; pops rhs, lhs
    kArith,        // a = ArithOp; pops rhs, lhs
    kNot,          // pops one boolean, pushes its negation
    // Short-circuit connectives in *value* position (nested under a
    // comparison). The top of stack must be boolean (checked, matching
    // EvalPredicate); on a taken jump the value stays as the result,
    // otherwise it is popped and the other operand runs.
    kJumpIfFalse,  // a = absolute jump target
    kJumpIfTrue,   // a = absolute jump target
    kRequireBool,  // validates top of stack is boolean, leaves it in place
    // FORALL in value position is an evaluation-time error in the
    // interpreter; this opcode reproduces it at the same program point.
    kErrorForAll,
  };

  struct Instruction {
    Op op;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// One existential comparison (or FORALL) with its binding loops: the
  /// program slice [code_begin, code_end) runs once per binding
  /// combination; `loop_nodes` lists the looped description nodes in
  /// first-reference order (outermost first). A FORALL leaf loops over
  /// exactly its quantified node, conjunctively.
  struct Leaf {
    uint32_t code_begin = 0;
    uint32_t code_end = 0;
    std::vector<uint32_t> loop_nodes;
    /// Fast path, detected at compile time: the leaf is a single
    /// `attr ⊕ literal` comparison over one loop node, so evaluation calls
    /// ApplyCompareBool directly per binding and skips the stack machine.
    bool fast = false;
    bool fast_attr_on_left = true;
    uint32_t fast_value_slot = 0;
    uint32_t fast_literal = 0;
    CompareOp fast_op = CompareOp::kEq;
    /// Index into leaf_batches_, or -1 when the leaf runs scalar.
    int32_t batch = -1;
  };

  /// Batch (vectorized) execution state for one eligible leaf: pass/err
  /// bitmaps over the head rows of the leaf's single loop store. Built
  /// lazily on first evaluation (std::call_once — thread-safe under the
  /// shared-Scratch-free contract), so predicates that are compiled but
  /// never run (EXPLAIN, planning probes) pay nothing.
  ///
  /// Semantics: bit r caches the *outcome* of evaluating the leaf program
  /// with head row r bound — built either by a typed column kernel
  /// (fast leaves over a clean column) or by running the stack machine per
  /// row. Evaluation still walks each molecule's span in binding order and
  /// probes bits, so verdicts, short-circuiting, deterministic min-slot
  /// error selection, and error timing are bit-identical to the scalar
  /// engine; err bits are replayed through the scalar path to reproduce the
  /// exact Status text.
  struct LeafBatch {
    uint32_t node = 0;
    const Atom* base = nullptr;  // head array at compile time
    size_t rows = 0;
    std::once_flag once;
    RowBitmaps bits;
  };

  /// The boolean skeleton EvalBoolean walks: AND/OR/NOT split recursively
  /// (short-circuiting), everything else is an existential or FORALL leaf.
  struct BoolNode {
    enum class Kind : uint8_t { kAnd, kOr, kNot, kLeaf, kForAll };
    Kind kind;
    int32_t left = -1;   // bools_ index (kAnd / kOr / kNot)
    int32_t right = -1;  // bools_ index (kAnd / kOr)
    int32_t leaf = -1;   // leaves_ index (kLeaf / kForAll)
  };

  CompiledPredicate() = default;

  // Build helpers (compile time).
  Result<int32_t> BuildBool(const Expr& expr);
  Result<int32_t> BuildLeaf(const Expr& expr);
  Result<int32_t> BuildForAllLeaf(const Expr& expr);
  void MaybeMarkFast(Leaf& leaf) const;
  Status EmitValue(const Expr& expr,
                   const std::map<std::string, uint32_t>& slots);
  void PlanBatch(const std::optional<ReadView>& view);

  // Evaluation helpers (run time).
  void PrepareScratch(Scratch& scratch) const;
  Result<bool> EvalBool(int32_t index, const AtomSpan* groups,
                        Scratch& scratch) const;
  Result<bool> EvalLeafExistential(const Leaf& leaf, const AtomSpan* groups,
                                   Scratch& scratch) const;
  Result<bool> EvalLeafForAll(const Leaf& leaf, const AtomSpan* groups,
                              Scratch& scratch) const;
  Result<bool> RunProgram(const Leaf& leaf, const AtomSpan* groups,
                          Scratch& scratch) const;
  /// Scalar evaluation of one binding of a single-loop leaf (fast-path
  /// compare or stack machine) — the batch paths' fallback and error
  /// replay, so the two engines share every operator implementation.
  Result<bool> EvalOneBinding(const Leaf& leaf, const Atom* atom,
                              const AtomSpan* groups, Scratch& scratch) const;
  void EnsureBatch(const Leaf& leaf, LeafBatch& lb) const;
  /// Head row of `atom` in lb's store, or npos when the pointer is outside
  /// the head array (an archived version from a snapshot merge).
  static size_t RowOf(const LeafBatch& lb, const Atom* atom) {
    std::less<const Atom*> lt;
    if (lt(atom, lb.base) || !lt(atom, lb.base + lb.rows)) {
      return static_cast<size_t>(-1);
    }
    return static_cast<size_t>(atom - lb.base);
  }

  const Database* db_ = nullptr;
  const MoleculeDescription* md_ = nullptr;
  ExprPtr resolved_;
  std::vector<Instruction> code_;
  std::vector<Value> literals_;
  std::vector<Leaf> leaves_;
  std::vector<BoolNode> bools_;
  int32_t root_ = -1;
  /// Per description node, captured at compile time (node order).
  std::vector<const AtomStore*> stores_;
  std::vector<const Schema*> schemas_;
  /// Per *looped* node: direct-mapped id.value -> atom row (nullptr =
  /// absent), built once at compile time so EvalMolecule resolves each
  /// molecule atom with one array read instead of one hash per atom. Ids
  /// are dense database-assigned counters, so the table is at most
  /// max-id + 1 pointers. Same borrow-until-mutation contract as `stores_`.
  std::vector<std::vector<const Atom*>> row_tables_;
  std::vector<size_t> loop_node_set_;
  uint32_t max_loop_depth_ = 0;
  /// Batch state per eligible leaf (unique_ptr: std::once_flag pins the
  /// address, the predicate itself stays movable). Entries are lazily
  /// filled at first evaluation and read-only afterwards.
  std::vector<std::unique_ptr<LeafBatch>> leaf_batches_;
};

/// The description node the attribute reference `ref` binds to: its
/// qualifier's node (a label, else a unique atom-type name) or, unqualified,
/// the one node whose visible attributes include it. The attribute must
/// exist there and must not be projected away.
Result<size_t> ResolveAttributeNode(const Database& db,
                                    const MoleculeDescription& md,
                                    const Expr& ref);

/// Rewrites every attribute reference of `predicate` to label-qualified
/// form against `md`, validating attribute existence, projection narrowing,
/// COUNT/FORALL qualifiers, and the FORALL scoping rules along the way: the
/// acceptance rule of CompiledPredicate::Compile, shared with the
/// interpreter oracle so both accept exactly the same predicates.
Result<ExprPtr> ResolveQualification(const Database& db,
                                     const MoleculeDescription& md,
                                     const ExprPtr& predicate);

/// Collects the distinct qualifiers of `expr`'s attribute references in
/// first-reference (pre-order) order: the binding-loop order of existential
/// evaluation, shared with the interpreter oracle so both enumerate
/// witnesses identically.
void CollectQualifierLabels(const Expr& expr, std::vector<std::string>* out);

}  // namespace expr
}  // namespace mad

#endif  // MAD_EXPR_COMPILE_H_
