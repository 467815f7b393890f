#include "expr/expr.h"

#include "util/string_util.h"

namespace mad {
namespace expr {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kAttrRef:
      return qualifier_.empty() ? attribute_ : qualifier_ + "." + attribute_;
    case Kind::kCompare:
      return StrCat({"(", left_->ToString(), " ", CompareOpName(compare_op_),
                     " ", right_->ToString(), ")"});
    case Kind::kArith:
      return StrCat({"(", left_->ToString(), " ", ArithOpName(arith_op_), " ",
                     right_->ToString(), ")"});
    case Kind::kAnd:
      return StrCat({"(", left_->ToString(), " AND ", right_->ToString(), ")"});
    case Kind::kOr:
      return StrCat({"(", left_->ToString(), " OR ", right_->ToString(), ")"});
    case Kind::kNot:
      return StrCat({"(NOT ", left_->ToString(), ")"});
    case Kind::kCount:
      return "COUNT(" + qualifier_ + ")";
    case Kind::kForAll:
      return "FORALL " + qualifier_ + " " + left_->ToString();
  }
  return "?";
}

void Expr::CollectAttrRefs(std::vector<const Expr*>* out) const {
  if (kind_ == Kind::kAttrRef) {
    out->push_back(this);
    return;
  }
  if (left_ != nullptr) left_->CollectAttrRefs(out);
  if (right_ != nullptr) right_->CollectAttrRefs(out);
}

bool Expr::IsPredicate() const {
  switch (kind_) {
    case Kind::kCompare:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
    case Kind::kForAll:
      return true;
    case Kind::kLiteral:
      return literal_.type() == DataType::kBool;
    case Kind::kAttrRef:
      return true;  // May resolve to a BOOL attribute.
    case Kind::kArith:
    case Kind::kCount:
      return false;
  }
  return false;
}

ExprPtr Expr::WithOperands(ExprPtr lhs, ExprPtr rhs) const {
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::MakeAttrRef(std::string qualifier, std::string attribute) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAttrRef));
  e->qualifier_ = std::move(qualifier);
  e->attribute_ = std::move(attribute);
  return e;
}

ExprPtr Expr::MakeCount(std::string qualifier) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCount));
  e->qualifier_ = std::move(qualifier);
  return e;
}

ExprPtr Expr::MakeForAll(std::string qualifier, ExprPtr predicate) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kForAll));
  e->qualifier_ = std::move(qualifier);
  e->left_ = std::move(predicate);
  return e;
}

ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCompare));
  e->compare_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kArith));
  e->arith_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAnd));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeOr(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kOr));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kNot));
  e->left_ = std::move(operand);
  return e;
}

ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }
ExprPtr Attr(std::string attribute) {
  return Expr::MakeAttrRef("", std::move(attribute));
}
ExprPtr Attr(std::string qualifier, std::string attribute) {
  return Expr::MakeAttrRef(std::move(qualifier), std::move(attribute));
}

ExprPtr Count(std::string qualifier) {
  return Expr::MakeCount(std::move(qualifier));
}

ExprPtr ForAll(std::string qualifier, ExprPtr predicate) {
  return Expr::MakeForAll(std::move(qualifier), std::move(predicate));
}

ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeCompare(CompareOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeCompare(CompareOp::kNe, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeCompare(CompareOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr Le(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeCompare(CompareOp::kLe, std::move(lhs), std::move(rhs));
}
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeCompare(CompareOp::kGt, std::move(lhs), std::move(rhs));
}
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeCompare(CompareOp::kGe, std::move(lhs), std::move(rhs));
}

ExprPtr Add(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeArith(ArithOp::kAdd, std::move(lhs), std::move(rhs));
}
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeArith(ArithOp::kSub, std::move(lhs), std::move(rhs));
}
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeArith(ArithOp::kMul, std::move(lhs), std::move(rhs));
}
ExprPtr Div(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeArith(ArithOp::kDiv, std::move(lhs), std::move(rhs));
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeAnd(std::move(lhs), std::move(rhs));
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return Expr::MakeOr(std::move(lhs), std::move(rhs));
}
ExprPtr Not(ExprPtr operand) { return Expr::MakeNot(std::move(operand)); }

}  // namespace expr
}  // namespace mad
