#include "support/molecule_qualifier.h"

#include <vector>

#include "expr/compile.h"
#include "expr/eval.h"

namespace mad {

namespace {

using expr::Expr;
using expr::ExprPtr;

bool ContainsCount(const Expr& expr) {
  if (expr.kind() == Expr::Kind::kCount) return true;
  if (expr.left() != nullptr && ContainsCount(*expr.left())) return true;
  return expr.right() != nullptr && ContainsCount(*expr.right());
}

}  // namespace

Result<MoleculeQualifier> MoleculeQualifier::Create(
    const Database& db, const MoleculeDescription& md,
    expr::ExprPtr predicate) {
  MoleculeQualifier q;
  q.db_ = &db;
  q.md_ = &md;
  MAD_ASSIGN_OR_RETURN(q.resolved_,
                       expr::ResolveQualification(db, md, predicate));
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    q.label_info_[md.nodes()[i].label] = {i, &at->description()};
  }
  return q;
}

Result<bool> MoleculeQualifier::Matches(MoleculeView molecule) const {
  return EvalBoolean(*resolved_, molecule);
}

Result<bool> MoleculeQualifier::EvalResolved(const expr::Expr& expr,
                                             MoleculeView molecule) const {
  return EvalBoolean(expr, molecule);
}

Result<const std::pair<size_t, const Schema*>*> MoleculeQualifier::FindLabel(
    const std::string& label) const {
  auto it = label_info_.find(label);
  if (it == label_info_.end()) {
    return Status::InvalidArgument("unresolved qualifier '" + label +
                                   "' in qualification formula (not a node "
                                   "label of the description)");
  }
  return &it->second;
}

Result<bool> MoleculeQualifier::EvalBoolean(const expr::Expr& expr,
                                            MoleculeView molecule) const {
  switch (expr.kind()) {
    case Expr::Kind::kAnd: {
      MAD_ASSIGN_OR_RETURN(bool lhs, EvalBoolean(*expr.left(), molecule));
      if (!lhs) return false;
      return EvalBoolean(*expr.right(), molecule);
    }
    case Expr::Kind::kOr: {
      MAD_ASSIGN_OR_RETURN(bool lhs, EvalBoolean(*expr.left(), molecule));
      if (lhs) return true;
      return EvalBoolean(*expr.right(), molecule);
    }
    case Expr::Kind::kNot: {
      MAD_ASSIGN_OR_RETURN(bool operand, EvalBoolean(*expr.left(), molecule));
      return !operand;
    }
    case Expr::Kind::kForAll:
      return EvalForAll(expr, molecule);
    default:
      return EvalExistential(expr, molecule);
  }
}

Result<expr::ExprPtr> MoleculeQualifier::SubstituteCounts(
    const expr::Expr& node, MoleculeView molecule) const {
  switch (node.kind()) {
    case Expr::Kind::kCount: {
      MAD_ASSIGN_OR_RETURN(const auto* info, FindLabel(node.qualifier()));
      return expr::Lit(
          static_cast<int64_t>(molecule.AtomsOf(info->first).size()));
    }
    case Expr::Kind::kLiteral:
      return Expr::MakeLiteral(node.literal());
    case Expr::Kind::kAttrRef:
      return Expr::MakeAttrRef(node.qualifier(), node.attribute());
    case Expr::Kind::kCompare: {
      MAD_ASSIGN_OR_RETURN(ExprPtr lhs,
                           SubstituteCounts(*node.left(), molecule));
      MAD_ASSIGN_OR_RETURN(ExprPtr rhs,
                           SubstituteCounts(*node.right(), molecule));
      return Expr::MakeCompare(node.compare_op(), std::move(lhs),
                               std::move(rhs));
    }
    case Expr::Kind::kArith: {
      MAD_ASSIGN_OR_RETURN(ExprPtr lhs,
                           SubstituteCounts(*node.left(), molecule));
      MAD_ASSIGN_OR_RETURN(ExprPtr rhs,
                           SubstituteCounts(*node.right(), molecule));
      return Expr::MakeArith(node.arith_op(), std::move(lhs), std::move(rhs));
    }
    case Expr::Kind::kAnd: {
      MAD_ASSIGN_OR_RETURN(ExprPtr lhs,
                           SubstituteCounts(*node.left(), molecule));
      MAD_ASSIGN_OR_RETURN(ExprPtr rhs,
                           SubstituteCounts(*node.right(), molecule));
      return Expr::MakeAnd(std::move(lhs), std::move(rhs));
    }
    case Expr::Kind::kOr: {
      MAD_ASSIGN_OR_RETURN(ExprPtr lhs,
                           SubstituteCounts(*node.left(), molecule));
      MAD_ASSIGN_OR_RETURN(ExprPtr rhs,
                           SubstituteCounts(*node.right(), molecule));
      return Expr::MakeOr(std::move(lhs), std::move(rhs));
    }
    case Expr::Kind::kNot: {
      MAD_ASSIGN_OR_RETURN(ExprPtr operand,
                           SubstituteCounts(*node.left(), molecule));
      return Expr::MakeNot(std::move(operand));
    }
    case Expr::Kind::kForAll: {
      MAD_ASSIGN_OR_RETURN(ExprPtr inner,
                           SubstituteCounts(*node.left(), molecule));
      return Expr::MakeForAll(node.qualifier(), std::move(inner));
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<bool> MoleculeQualifier::EvalForAll(const expr::Expr& expr,
                                           MoleculeView molecule) const {
  MAD_ASSIGN_OR_RETURN(const auto* info, FindLabel(expr.qualifier()));
  const auto& [node_idx, schema] = *info;
  MAD_ASSIGN_OR_RETURN(expr::ExprPtr inner,
                       SubstituteCounts(*expr.left(), molecule));
  const std::string& type_name = md_->nodes()[node_idx].type_name;
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db_->GetAtomType(type_name));
  expr::BindingSet bindings;
  for (AtomId id : molecule.AtomsOf(node_idx)) {
    const Atom* atom = at->occurrence().Find(id);
    if (atom == nullptr) {
      return Status::Internal("molecule atom missing from store");
    }
    bindings.Bind(expr.qualifier(), schema, atom);
    MAD_ASSIGN_OR_RETURN(bool hit, expr::EvalPredicate(*inner, bindings));
    if (!hit) return false;
  }
  return true;  // vacuously true on an empty group
}

Result<bool> MoleculeQualifier::EvalExistential(const expr::Expr& expr,
                                                MoleculeView molecule) const {
  // COUNT(label) nodes are molecule-level constants: substitute them first.
  if (ContainsCount(expr)) {
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr substituted,
                         SubstituteCounts(expr, molecule));
    return EvalExistential(*substituted, molecule);
  }

  std::vector<std::string> labels;
  expr::CollectQualifierLabels(expr, &labels);

  if (labels.empty()) {
    expr::BindingSet empty;
    return expr::EvalPredicate(expr, empty);
  }

  // Existential nested loops over the molecule's atoms of each referenced
  // node; a failing binding combination is just "no witness", but a type
  // error in the comparison itself propagates.
  expr::BindingSet bindings;
  // Recursive lambda over the label list.
  auto search = [&](auto&& self, size_t depth) -> Result<bool> {
    if (depth == labels.size()) return expr::EvalPredicate(expr, bindings);
    MAD_ASSIGN_OR_RETURN(const auto* info, FindLabel(labels[depth]));
    const auto& [node_idx, schema] = *info;
    const std::string& type_name = md_->nodes()[node_idx].type_name;
    MAD_ASSIGN_OR_RETURN(const AtomType* at, db_->GetAtomType(type_name));
    for (AtomId id : molecule.AtomsOf(node_idx)) {
      const Atom* atom = at->occurrence().Find(id);
      if (atom == nullptr) {
        return Status::Internal("molecule atom missing from store");
      }
      bindings.Bind(labels[depth], schema, atom);
      MAD_ASSIGN_OR_RETURN(bool hit, self(self, depth + 1));
      if (hit) return true;
    }
    return false;
  };
  return search(search, 0);
}

}  // namespace mad
