#include "expr/compile.h"

#include <algorithm>

#include "expr/eval.h"

namespace mad {
namespace expr {

namespace {

/// False when projection narrowing hides `attribute` on `node`.
bool Visible(const MoleculeNode& node, const std::string& attribute) {
  return !node.attributes.has_value() ||
         std::find(node.attributes->begin(), node.attributes->end(),
                   attribute) != node.attributes->end();
}

}  // namespace

Result<size_t> ResolveAttributeNode(const Database& db,
                                    const MoleculeDescription& md,
                                    const Expr& ref) {
  const std::string& attr = ref.attribute();
  const size_t kNone = static_cast<size_t>(-1);
  size_t node_idx = kNone;
  if (!ref.qualifier().empty()) {
    MAD_ASSIGN_OR_RETURN(node_idx, md.ResolveQualifier(ref.qualifier()));
    const MoleculeNode& mn = md.nodes()[node_idx];
    MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(mn.type_name));
    if (!at->description().HasAttribute(attr)) {
      return Status::NotFound("node '" + mn.label + "' has no attribute '" +
                              attr + "'");
    }
  } else {
    // Unqualified: the attribute must be visible in exactly one node.
    for (size_t i = 0; i < md.nodes().size(); ++i) {
      MAD_ASSIGN_OR_RETURN(const AtomType* at,
                           db.GetAtomType(md.nodes()[i].type_name));
      if (!at->description().HasAttribute(attr) ||
          !Visible(md.nodes()[i], attr)) {
        continue;
      }
      if (node_idx != kNone) {
        return Status::InvalidArgument("ambiguous attribute '" + attr +
                                       "' (qualify it with a node label)");
      }
      node_idx = i;
    }
    if (node_idx == kNone) {
      return Status::NotFound("attribute '" + attr +
                              "' occurs in no node of the description");
    }
  }
  // Projection narrowing hides attributes even under a qualifier.
  if (!Visible(md.nodes()[node_idx], attr)) {
    return Status::NotFound("attribute '" + attr +
                            "' was projected away from node '" +
                            md.nodes()[node_idx].label + "'");
  }
  return node_idx;
}

namespace {

bool ContainsForAll(const Expr& expr) {
  if (expr.kind() == Expr::Kind::kForAll) return true;
  if (expr.left() != nullptr && ContainsForAll(*expr.left())) return true;
  return expr.right() != nullptr && ContainsForAll(*expr.right());
}

/// Rewrites every attribute reference to label-qualified form, validating
/// existence and attribute narrowing along the way.
Result<ExprPtr> ResolveRefs(const Database& db, const MoleculeDescription& md,
                            const ExprPtr& node) {
  switch (node->kind()) {
    case Expr::Kind::kLiteral:
      return node;
    case Expr::Kind::kAttrRef: {
      MAD_ASSIGN_OR_RETURN(size_t idx, ResolveAttributeNode(db, md, *node));
      return Expr::MakeAttrRef(md.nodes()[idx].label, node->attribute());
    }
    case Expr::Kind::kCompare:
    case Expr::Kind::kArith:
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot: {
      MAD_ASSIGN_OR_RETURN(ExprPtr lhs, ResolveRefs(db, md, node->left()));
      ExprPtr rhs;
      if (node->right() != nullptr) {
        MAD_ASSIGN_OR_RETURN(rhs, ResolveRefs(db, md, node->right()));
      }
      return node->WithOperands(std::move(lhs), std::move(rhs));
    }
    case Expr::Kind::kCount: {
      MAD_ASSIGN_OR_RETURN(size_t node_idx,
                           md.ResolveQualifier(node->qualifier()));
      return Expr::MakeCount(md.nodes()[node_idx].label);
    }
    case Expr::Kind::kForAll: {
      MAD_ASSIGN_OR_RETURN(size_t node_idx,
                           md.ResolveQualifier(node->qualifier()));
      const std::string& label = md.nodes()[node_idx].label;
      if (ContainsForAll(*node->left())) {
        return Status::Unsupported("nested FORALL is not supported");
      }
      MAD_ASSIGN_OR_RETURN(ExprPtr inner, ResolveRefs(db, md, node->left()));
      // The quantified predicate may reference only the quantified node
      // (plus molecule-level COUNTs); mixing quantifiers stays out of
      // scope.
      std::vector<const Expr*> refs;
      inner->CollectAttrRefs(&refs);
      for (const Expr* ref : refs) {
        if (ref->qualifier() != label) {
          return Status::InvalidArgument(
              "FORALL " + label + ": predicate may only reference '" + label +
              "', found '" + ref->qualifier() + "." + ref->attribute() + "'");
        }
      }
      return Expr::MakeForAll(label, std::move(inner));
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

void CollectQualifierLabels(const Expr& expr, std::vector<std::string>* out) {
  std::vector<const Expr*> refs;
  expr.CollectAttrRefs(&refs);
  for (const Expr* ref : refs) {
    if (std::find(out->begin(), out->end(), ref->qualifier()) == out->end()) {
      out->push_back(ref->qualifier());
    }
  }
}

Result<ExprPtr> ResolveQualification(const Database& db,
                                     const MoleculeDescription& md,
                                     const ExprPtr& predicate) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("qualification predicate must be non-null");
  }
  if (!predicate->IsPredicate()) {
    return Status::InvalidArgument("expression " + predicate->ToString() +
                                   " is not a predicate");
  }
  return ResolveRefs(db, md, predicate);
}

Result<CompiledPredicate> CompiledPredicate::Compile(
    const Database& db, const MoleculeDescription& md, const ExprPtr& predicate,
    std::optional<ReadView> view, BatchMode mode) {
  CompiledPredicate cp;
  cp.db_ = &db;
  cp.md_ = &md;
  MAD_ASSIGN_OR_RETURN(cp.resolved_, ResolveQualification(db, md, predicate));
  cp.stores_.reserve(md.nodes().size());
  cp.schemas_.reserve(md.nodes().size());
  for (const MoleculeNode& node : md.nodes()) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(node.type_name));
    cp.stores_.push_back(&at->occurrence());
    cp.schemas_.push_back(&at->description());
  }
  MAD_ASSIGN_OR_RETURN(cp.root_, cp.BuildBool(*cp.resolved_));
  // Direct-mapped rows for every node the binding loops touch, resolved
  // through the pinned view when one is given (the head when not, or when
  // the head already equals the snapshot).
  cp.row_tables_.resize(cp.stores_.size());
  for (size_t node_idx : cp.loop_node_set_) {
    const AtomStore& store = *cp.stores_[node_idx];
    std::vector<const Atom*>& table = cp.row_tables_[node_idx];
    if (view.has_value() && !store.HeadVisibleAt(*view)) {
      std::vector<const Atom*> rows = store.SnapshotAt(*view);
      uint64_t max_id = 0;
      for (const Atom* atom : rows) {
        max_id = std::max(max_id, atom->id.value);
      }
      table.assign(static_cast<size_t>(max_id) + 1, nullptr);
      for (const Atom* atom : rows) {
        table[atom->id.value] = atom;
      }
      continue;
    }
    uint64_t max_id = 0;
    for (const Atom& atom : store.atoms()) {
      max_id = std::max(max_id, atom.id.value);
    }
    table.assign(static_cast<size_t>(max_id) + 1, nullptr);
    for (const Atom& atom : store.atoms()) {
      table[atom.id.value] = &atom;
    }
  }
  if (mode == BatchMode::kAuto) cp.PlanBatch(view);
  return cp;
}

void CompiledPredicate::PlanBatch(const std::optional<ReadView>& view) {
  // A leaf is batch-eligible when its cached per-row bits can be probed in
  // the same order the scalar loops bind atoms: exactly one binding loop
  // (multi-loop leaves evaluate per combination, not per row), no COUNT
  // (group-size dependent, not row-pure), and the leaf's store head is the
  // snapshot the predicate was compiled against (pinned non-head views read
  // the row-oriented archive and stay scalar).
  for (Leaf& leaf : leaves_) {
    if (leaf.loop_nodes.size() != 1) continue;
    bool row_pure = true;
    for (uint32_t ip = leaf.code_begin; ip < leaf.code_end; ++ip) {
      if (code_[ip].op == Op::kPushCount) {
        row_pure = false;
        break;
      }
    }
    if (!row_pure) continue;
    const AtomStore& store = *stores_[leaf.loop_nodes[0]];
    if (view.has_value() && !store.HeadVisibleAt(*view)) continue;
    auto lb = std::make_unique<LeafBatch>();
    lb->node = leaf.loop_nodes[0];
    lb->base = store.atoms().data();
    lb->rows = store.atoms().size();
    leaf.batch = static_cast<int32_t>(leaf_batches_.size());
    leaf_batches_.push_back(std::move(lb));
  }
}

// ---- Compilation ------------------------------------------------------------

Result<int32_t> CompiledPredicate::BuildBool(const Expr& expr) {
  // Mirrors the interpreter's boolean walk: AND/OR/NOT and top-level
  // FORALL split recursively, everything else is one existential leaf.
  switch (expr.kind()) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      MAD_ASSIGN_OR_RETURN(int32_t left, BuildBool(*expr.left()));
      MAD_ASSIGN_OR_RETURN(int32_t right, BuildBool(*expr.right()));
      BoolNode node;
      node.kind = expr.kind() == Expr::Kind::kAnd ? BoolNode::Kind::kAnd
                                                  : BoolNode::Kind::kOr;
      node.left = left;
      node.right = right;
      bools_.push_back(node);
      return static_cast<int32_t>(bools_.size() - 1);
    }
    case Expr::Kind::kNot: {
      MAD_ASSIGN_OR_RETURN(int32_t left, BuildBool(*expr.left()));
      BoolNode node;
      node.kind = BoolNode::Kind::kNot;
      node.left = left;
      bools_.push_back(node);
      return static_cast<int32_t>(bools_.size() - 1);
    }
    case Expr::Kind::kForAll: {
      MAD_ASSIGN_OR_RETURN(int32_t leaf, BuildForAllLeaf(expr));
      BoolNode node;
      node.kind = BoolNode::Kind::kForAll;
      node.leaf = leaf;
      bools_.push_back(node);
      return static_cast<int32_t>(bools_.size() - 1);
    }
    default: {
      MAD_ASSIGN_OR_RETURN(int32_t leaf, BuildLeaf(expr));
      BoolNode node;
      node.kind = BoolNode::Kind::kLeaf;
      node.leaf = leaf;
      bools_.push_back(node);
      return static_cast<int32_t>(bools_.size() - 1);
    }
  }
}

namespace {

/// Folds a finished leaf's loops into the predicate-wide bookkeeping.
void RecordLoops(const std::vector<uint32_t>& loop_nodes,
                 std::vector<size_t>* loop_node_set,
                 uint32_t* max_loop_depth) {
  *max_loop_depth =
      std::max(*max_loop_depth, static_cast<uint32_t>(loop_nodes.size()));
  for (uint32_t idx : loop_nodes) {
    auto it = std::lower_bound(loop_node_set->begin(), loop_node_set->end(),
                               static_cast<size_t>(idx));
    if (it == loop_node_set->end() || *it != idx) {
      loop_node_set->insert(it, idx);
    }
  }
}

}  // namespace

void CompiledPredicate::MaybeMarkFast(Leaf& leaf) const {
  if (leaf.loop_nodes.size() != 1 || leaf.code_end - leaf.code_begin != 3) {
    return;
  }
  const Instruction& i0 = code_[leaf.code_begin];
  const Instruction& i1 = code_[leaf.code_begin + 1];
  const Instruction& i2 = code_[leaf.code_begin + 2];
  if (i2.op != Op::kCompare) return;
  if (i0.op == Op::kPushAttr && i1.op == Op::kPushLiteral) {
    leaf.fast = true;
    leaf.fast_attr_on_left = true;
    leaf.fast_value_slot = i0.b;
    leaf.fast_literal = i1.a;
  } else if (i0.op == Op::kPushLiteral && i1.op == Op::kPushAttr) {
    leaf.fast = true;
    leaf.fast_attr_on_left = false;
    leaf.fast_value_slot = i1.b;
    leaf.fast_literal = i0.a;
  } else {
    return;
  }
  leaf.fast_op = static_cast<CompareOp>(i2.a);
}

Result<int32_t> CompiledPredicate::BuildLeaf(const Expr& expr) {
  // Binding loops in first-reference order — the same enumeration
  // EvalExistential performs, so witnesses are found (and errors surface)
  // in the same order.
  std::vector<std::string> labels;
  CollectQualifierLabels(expr, &labels);
  Leaf leaf;
  std::map<std::string, uint32_t> slots;
  for (const std::string& label : labels) {
    MAD_ASSIGN_OR_RETURN(size_t node_idx, md_->NodeIndex(label));
    slots[label] = static_cast<uint32_t>(leaf.loop_nodes.size());
    leaf.loop_nodes.push_back(static_cast<uint32_t>(node_idx));
  }
  leaf.code_begin = static_cast<uint32_t>(code_.size());
  MAD_RETURN_IF_ERROR(EmitValue(expr, slots));
  leaf.code_end = static_cast<uint32_t>(code_.size());
  MaybeMarkFast(leaf);
  RecordLoops(leaf.loop_nodes, &loop_node_set_, &max_loop_depth_);
  leaves_.push_back(std::move(leaf));
  return static_cast<int32_t>(leaves_.size() - 1);
}

Result<int32_t> CompiledPredicate::BuildForAllLeaf(const Expr& expr) {
  MAD_ASSIGN_OR_RETURN(size_t node_idx,
                       md_->ResolveQualifier(expr.qualifier()));
  Leaf leaf;
  leaf.loop_nodes.push_back(static_cast<uint32_t>(node_idx));
  std::map<std::string, uint32_t> slots;
  slots[expr.qualifier()] = 0;
  leaf.code_begin = static_cast<uint32_t>(code_.size());
  MAD_RETURN_IF_ERROR(EmitValue(*expr.left(), slots));
  leaf.code_end = static_cast<uint32_t>(code_.size());
  MaybeMarkFast(leaf);
  RecordLoops(leaf.loop_nodes, &loop_node_set_, &max_loop_depth_);
  leaves_.push_back(std::move(leaf));
  return static_cast<int32_t>(leaves_.size() - 1);
}

Status CompiledPredicate::EmitValue(
    const Expr& expr, const std::map<std::string, uint32_t>& slots) {
  switch (expr.kind()) {
    case Expr::Kind::kLiteral: {
      literals_.push_back(expr.literal());
      Instruction ins;
      ins.op = Op::kPushLiteral;
      ins.a = static_cast<uint32_t>(literals_.size() - 1);
      code_.push_back(ins);
      return Status::OK();
    }
    case Expr::Kind::kAttrRef: {
      auto slot_it = slots.find(expr.qualifier());
      if (slot_it == slots.end()) {
        return Status::Internal("attribute reference '" + expr.ToString() +
                                "' escapes its binding loops");
      }
      MAD_ASSIGN_OR_RETURN(size_t node_idx,
                           md_->NodeIndex(expr.qualifier()));
      MAD_ASSIGN_OR_RETURN(size_t value_slot,
                           schemas_[node_idx]->IndexOf(expr.attribute()));
      Instruction ins;
      ins.op = Op::kPushAttr;
      ins.a = slot_it->second;
      ins.b = static_cast<uint32_t>(value_slot);
      code_.push_back(ins);
      return Status::OK();
    }
    case Expr::Kind::kCount: {
      // COUNT(label) is a molecule-level constant (the interpreter
      // substitutes it before binding loops run); compiled, it reads the
      // group size directly.
      MAD_ASSIGN_OR_RETURN(size_t node_idx,
                           md_->ResolveQualifier(expr.qualifier()));
      Instruction ins;
      ins.op = Op::kPushCount;
      ins.a = static_cast<uint32_t>(node_idx);
      code_.push_back(ins);
      return Status::OK();
    }
    case Expr::Kind::kCompare: {
      MAD_RETURN_IF_ERROR(EmitValue(*expr.left(), slots));
      MAD_RETURN_IF_ERROR(EmitValue(*expr.right(), slots));
      Instruction ins;
      ins.op = Op::kCompare;
      ins.a = static_cast<uint32_t>(expr.compare_op());
      code_.push_back(ins);
      return Status::OK();
    }
    case Expr::Kind::kArith: {
      MAD_RETURN_IF_ERROR(EmitValue(*expr.left(), slots));
      MAD_RETURN_IF_ERROR(EmitValue(*expr.right(), slots));
      Instruction ins;
      ins.op = Op::kArith;
      ins.a = static_cast<uint32_t>(expr.arith_op());
      code_.push_back(ins);
      return Status::OK();
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      // Value-position connective (nested under a comparison): both sides
      // must be boolean, left short-circuits — exactly EvalValue's kAnd/kOr.
      MAD_RETURN_IF_ERROR(EmitValue(*expr.left(), slots));
      size_t jump_at = code_.size();
      Instruction jump;
      jump.op = expr.kind() == Expr::Kind::kAnd ? Op::kJumpIfFalse
                                                : Op::kJumpIfTrue;
      code_.push_back(jump);
      MAD_RETURN_IF_ERROR(EmitValue(*expr.right(), slots));
      Instruction require;
      require.op = Op::kRequireBool;
      code_.push_back(require);
      code_[jump_at].a = static_cast<uint32_t>(code_.size());
      return Status::OK();
    }
    case Expr::Kind::kNot: {
      MAD_RETURN_IF_ERROR(EmitValue(*expr.left(), slots));
      Instruction ins;
      ins.op = Op::kNot;
      code_.push_back(ins);
      return Status::OK();
    }
    case Expr::Kind::kForAll: {
      // FORALL below a comparison is an evaluation-time error in the
      // interpreter (EvalValue), raised per binding combination. Emit the
      // error at the same program point; the operand never evaluates.
      Instruction ins;
      ins.op = Op::kErrorForAll;
      code_.push_back(ins);
      return Status::OK();
    }
  }
  return Status::Internal("unknown expression kind");
}

// ---- Evaluation -------------------------------------------------------------

Result<bool> CompiledPredicate::EvalOneBinding(const Leaf& leaf,
                                               const Atom* atom,
                                               const AtomSpan* groups,
                                               Scratch& scratch) const {
  if (leaf.fast) {
    const Value& literal = literals_[leaf.fast_literal];
    const Value& attr = atom->values[leaf.fast_value_slot];
    return leaf.fast_attr_on_left
               ? ApplyCompareBool(leaf.fast_op, attr, literal)
               : ApplyCompareBool(leaf.fast_op, literal, attr);
  }
  scratch.bound_[0] = atom;
  return RunProgram(leaf, groups, scratch);
}

void CompiledPredicate::EnsureBatch(const Leaf& leaf, LeafBatch& lb) const {
  std::call_once(lb.once, [this, &leaf, &lb] {
    // Fast leaves over a clean column: the typed compare kernel.
    if (leaf.fast) {
      const ColumnSet& columns = stores_[lb.node]->columns();
      const Column* col = columns.column(leaf.fast_value_slot);
      if (col != nullptr && columns.rows() == lb.rows &&
          BuildCompareBitmaps(*col, lb.rows, leaf.fast_op,
                              literals_[leaf.fast_literal],
                              leaf.fast_attr_on_left, &lb.bits)) {
        return;
      }
    }
    // Everything else (degraded columns, multi-op programs): run the scalar
    // engine once per head row. The cached bits still collapse every later
    // probe of a repeated atom to one load.
    lb.bits.Resize(lb.rows);
    Scratch scratch;
    PrepareScratch(scratch);
    for (size_t r = 0; r < lb.rows; ++r) {
      // groups is not consulted: batch planning excluded kPushCount, the
      // only opcode that reads it.
      Result<bool> verdict =
          EvalOneBinding(leaf, lb.base + r, nullptr, scratch);
      if (!verdict.ok()) {
        lb.bits.SetErr(r);
      } else if (*verdict) {
        lb.bits.SetPass(r);
      }
    }
  });
}

void CompiledPredicate::PrepareScratch(Scratch& scratch) const {
  if (scratch.temps_.size() < code_.size()) {
    scratch.temps_.resize(code_.size());
  }
  if (scratch.bound_.size() < max_loop_depth_) {
    scratch.bound_.resize(max_loop_depth_);
  }
}

Result<bool> CompiledPredicate::Eval(const AtomSpan* groups,
                                     Scratch& scratch) const {
  PrepareScratch(scratch);
  return EvalBool(root_, groups, scratch);
}

Result<bool> CompiledPredicate::EvalMolecule(MoleculeView molecule,
                                             Scratch& scratch) const {
  if (molecule.node_count() != stores_.size()) {
    return Status::Internal(
        "molecule node count does not match the compiled description");
  }
  PrepareScratch(scratch);
  scratch.rows_.resize(stores_.size());
  scratch.spans_.resize(stores_.size());
  for (size_t i = 0; i < stores_.size(); ++i) {
    scratch.spans_[i].data = nullptr;
    scratch.spans_[i].size = molecule.AtomsOf(i).size();
  }
  // Dense rows only for looped nodes; a missing atom becomes a null row and
  // errors when (and only when) the binding loops reach it — the
  // interpreter's lazy Find() timing at the cost of one direct-mapped table
  // read per atom instead of one hash per binding iteration.
  for (size_t node_idx : loop_node_set_) {
    const std::vector<const Atom*>& table = row_tables_[node_idx];
    std::vector<const Atom*>& row = scratch.rows_[node_idx];
    row.clear();
    for (AtomId id : molecule.AtomsOf(node_idx)) {
      row.push_back(id.value < table.size() ? table[id.value] : nullptr);
    }
    scratch.spans_[node_idx].data = row.data();
  }
  return EvalBool(root_, scratch.spans_.data(), scratch);
}

Result<bool> CompiledPredicate::EvalBool(int32_t index, const AtomSpan* groups,
                                         Scratch& scratch) const {
  const BoolNode& node = bools_[index];
  switch (node.kind) {
    case BoolNode::Kind::kAnd: {
      MAD_ASSIGN_OR_RETURN(bool lhs, EvalBool(node.left, groups, scratch));
      if (!lhs) return false;
      return EvalBool(node.right, groups, scratch);
    }
    case BoolNode::Kind::kOr: {
      MAD_ASSIGN_OR_RETURN(bool lhs, EvalBool(node.left, groups, scratch));
      if (lhs) return true;
      return EvalBool(node.right, groups, scratch);
    }
    case BoolNode::Kind::kNot: {
      MAD_ASSIGN_OR_RETURN(bool operand,
                           EvalBool(node.left, groups, scratch));
      return !operand;
    }
    case BoolNode::Kind::kLeaf:
      return EvalLeafExistential(leaves_[node.leaf], groups, scratch);
    case BoolNode::Kind::kForAll:
      return EvalLeafForAll(leaves_[node.leaf], groups, scratch);
  }
  return Status::Internal("unknown boolean node kind");
}

Result<bool> CompiledPredicate::EvalLeafExistential(const Leaf& leaf,
                                                    const AtomSpan* groups,
                                                    Scratch& scratch) const {
  if (leaf.loop_nodes.empty()) return RunProgram(leaf, groups, scratch);
  // Single-loop leaves (the common shape: one attribute scan) skip the
  // generic recursion; fast leaves additionally skip the stack machine.
  if (leaf.loop_nodes.size() == 1) {
    const AtomSpan& span = groups[leaf.loop_nodes[0]];
    if (leaf.batch >= 0 && span.size > 0) {
      // Batch probe: per-row verdicts come from the cached bitmaps, but the
      // walk order, the missing-atom error point, and error replay keep the
      // scalar semantics bit-for-bit (see LeafBatch).
      LeafBatch& lb = *leaf_batches_[leaf.batch];
      EnsureBatch(leaf, lb);
      for (size_t i = 0; i < span.size; ++i) {
        const Atom* atom = span.data[i];
        if (atom == nullptr) {
          return Status::Internal("molecule atom missing from store");
        }
        const size_t r = RowOf(lb, atom);
        if (r == static_cast<size_t>(-1)) {
          // Not a head row (archived version): scalar for this binding.
          MAD_ASSIGN_OR_RETURN(bool hit,
                               EvalOneBinding(leaf, atom, groups, scratch));
          if (hit) return true;
          continue;
        }
        if (lb.bits.Err(r)) {
          // Replay through the scalar engine for the exact Status.
          return EvalOneBinding(leaf, atom, groups, scratch);
        }
        if (lb.bits.Pass(r)) return true;
      }
      return false;
    }
    if (leaf.fast) {
      const Value& literal = literals_[leaf.fast_literal];
      for (size_t i = 0; i < span.size; ++i) {
        const Atom* atom = span.data[i];
        if (atom == nullptr) {
          return Status::Internal("molecule atom missing from store");
        }
        const Value& attr = atom->values[leaf.fast_value_slot];
        MAD_ASSIGN_OR_RETURN(
            bool hit, leaf.fast_attr_on_left
                          ? ApplyCompareBool(leaf.fast_op, attr, literal)
                          : ApplyCompareBool(leaf.fast_op, literal, attr));
        if (hit) return true;
      }
      return false;
    }
    for (size_t i = 0; i < span.size; ++i) {
      const Atom* atom = span.data[i];
      if (atom == nullptr) {
        return Status::Internal("molecule atom missing from store");
      }
      scratch.bound_[0] = atom;
      MAD_ASSIGN_OR_RETURN(bool hit, RunProgram(leaf, groups, scratch));
      if (hit) return true;
    }
    return false;
  }
  // Existential nested loops, outermost = first-referenced node; a failing
  // combination is just "no witness", an evaluation error propagates, an
  // empty group makes the leaf false.
  auto search = [&](auto&& self, size_t depth) -> Result<bool> {
    if (depth == leaf.loop_nodes.size()) {
      return RunProgram(leaf, groups, scratch);
    }
    const AtomSpan& span = groups[leaf.loop_nodes[depth]];
    for (size_t i = 0; i < span.size; ++i) {
      const Atom* atom = span.data[i];
      if (atom == nullptr) {
        return Status::Internal("molecule atom missing from store");
      }
      scratch.bound_[depth] = atom;
      MAD_ASSIGN_OR_RETURN(bool hit, self(self, depth + 1));
      if (hit) return true;
    }
    return false;
  };
  return search(search, 0);
}

Result<bool> CompiledPredicate::EvalLeafForAll(const Leaf& leaf,
                                               const AtomSpan* groups,
                                               Scratch& scratch) const {
  const AtomSpan& span = groups[leaf.loop_nodes[0]];
  if (leaf.batch >= 0 && span.size > 0) {
    // Conjunctive mirror of the existential batch probe: first false bit
    // fails the leaf, err bits replay, empty groups stay vacuously true.
    LeafBatch& lb = *leaf_batches_[leaf.batch];
    EnsureBatch(leaf, lb);
    for (size_t i = 0; i < span.size; ++i) {
      const Atom* atom = span.data[i];
      if (atom == nullptr) {
        return Status::Internal("molecule atom missing from store");
      }
      const size_t r = RowOf(lb, atom);
      if (r == static_cast<size_t>(-1)) {
        MAD_ASSIGN_OR_RETURN(bool hit,
                             EvalOneBinding(leaf, atom, groups, scratch));
        if (!hit) return false;
        continue;
      }
      if (lb.bits.Err(r)) {
        return EvalOneBinding(leaf, atom, groups, scratch);
      }
      if (!lb.bits.Pass(r)) return false;
    }
    return true;
  }
  if (leaf.fast) {
    const Value& literal = literals_[leaf.fast_literal];
    for (size_t i = 0; i < span.size; ++i) {
      const Atom* atom = span.data[i];
      if (atom == nullptr) {
        return Status::Internal("molecule atom missing from store");
      }
      const Value& attr = atom->values[leaf.fast_value_slot];
      MAD_ASSIGN_OR_RETURN(
          bool hit, leaf.fast_attr_on_left
                        ? ApplyCompareBool(leaf.fast_op, attr, literal)
                        : ApplyCompareBool(leaf.fast_op, literal, attr));
      if (!hit) return false;
    }
    return true;  // vacuously true on an empty group
  }
  for (size_t i = 0; i < span.size; ++i) {
    const Atom* atom = span.data[i];
    if (atom == nullptr) {
      return Status::Internal("molecule atom missing from store");
    }
    scratch.bound_[0] = atom;
    MAD_ASSIGN_OR_RETURN(bool hit, RunProgram(leaf, groups, scratch));
    if (!hit) return false;
  }
  return true;  // vacuously true on an empty group
}

Result<bool> CompiledPredicate::RunProgram(const Leaf& leaf,
                                           const AtomSpan* groups,
                                           Scratch& scratch) const {
  std::vector<const Value*>& stack = scratch.stack_;
  stack.clear();
  size_t ip = leaf.code_begin;
  while (ip < leaf.code_end) {
    const Instruction& ins = code_[ip];
    switch (ins.op) {
      case Op::kPushLiteral:
        stack.push_back(&literals_[ins.a]);
        ++ip;
        break;
      case Op::kPushAttr:
        stack.push_back(&scratch.bound_[ins.a]->values[ins.b]);
        ++ip;
        break;
      case Op::kPushCount:
        scratch.temps_[ip] =
            Value(static_cast<int64_t>(groups[ins.a].size));
        stack.push_back(&scratch.temps_[ip]);
        ++ip;
        break;
      case Op::kCompare: {
        const Value* rhs = stack.back();
        stack.pop_back();
        const Value* lhs = stack.back();
        stack.pop_back();
        MAD_ASSIGN_OR_RETURN(
            scratch.temps_[ip],
            ApplyCompare(static_cast<CompareOp>(ins.a), *lhs, *rhs));
        stack.push_back(&scratch.temps_[ip]);
        ++ip;
        break;
      }
      case Op::kArith: {
        const Value* rhs = stack.back();
        stack.pop_back();
        const Value* lhs = stack.back();
        stack.pop_back();
        MAD_ASSIGN_OR_RETURN(
            scratch.temps_[ip],
            ApplyArith(static_cast<ArithOp>(ins.a), *lhs, *rhs));
        stack.push_back(&scratch.temps_[ip]);
        ++ip;
        break;
      }
      case Op::kNot: {
        const Value* operand = stack.back();
        stack.pop_back();
        MAD_ASSIGN_OR_RETURN(bool b, RequireBool(*operand));
        scratch.temps_[ip] = Value(!b);
        stack.push_back(&scratch.temps_[ip]);
        ++ip;
        break;
      }
      case Op::kJumpIfFalse: {
        MAD_ASSIGN_OR_RETURN(bool b, RequireBool(*stack.back()));
        if (!b) {
          ip = ins.a;  // the false value stays as the connective's result
        } else {
          stack.pop_back();
          ++ip;
        }
        break;
      }
      case Op::kJumpIfTrue: {
        MAD_ASSIGN_OR_RETURN(bool b, RequireBool(*stack.back()));
        if (b) {
          ip = ins.a;  // the true value stays as the connective's result
        } else {
          stack.pop_back();
          ++ip;
        }
        break;
      }
      case Op::kRequireBool: {
        MAD_ASSIGN_OR_RETURN(bool b, RequireBool(*stack.back()));
        (void)b;
        ++ip;
        break;
      }
      case Op::kErrorForAll:
        return Status::InvalidArgument(
            "FORALL is only valid in molecule-scope qualification");
    }
  }
  // The predicate-position contract of EvalPredicate.
  return RequireBool(*stack.back());
}

std::string CompiledPredicate::Summary() const {
  std::string out = std::to_string(code_.size()) + " ops, " +
                    std::to_string(literals_.size()) + " literals";
  if (loop_node_set_.empty()) {
    out += ", no binding loops";
    return out;
  }
  out += ", loops over {";
  for (size_t i = 0; i < loop_node_set_.size(); ++i) {
    if (i > 0) out += ", ";
    out += md_->nodes()[loop_node_set_[i]].label;
  }
  out += "}";
  if (leaf_batches_.empty()) {
    out += ", scalar";
  } else {
    out += ", batch[" + std::to_string(leaf_batches_.size()) + "/" +
           std::to_string(leaves_.size()) + " leaves]";
  }
  return out;
}

}  // namespace expr
}  // namespace mad
