#ifndef MAD_EXPR_EXPR_H_
#define MAD_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/value.h"

namespace mad {
namespace expr {

/// Comparison operators of qualification formulas.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Arithmetic operators usable inside qualification formulas.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);

class Expr;
/// Expressions are immutable and shared; compose freely.
using ExprPtr = std::shared_ptr<const Expr>;

/// A node of a qualification formula (the paper's restr(ad) / restr(md)).
///
/// Grammar (abstract):
///   predicate  := comparison | predicate AND predicate
///               | predicate OR predicate | NOT predicate | literal-bool
///   comparison := value (= | != | < | <= | > | >=) value
///   value      := literal | attribute-ref | value (+|-|*|/) value
///
/// Attribute references are optionally qualified with an atom-type name:
/// `hectare` (atom scope) or `point.name` (molecule scope, Ch. 4 example).
class Expr {
 public:
  enum class Kind {
    kLiteral,
    kAttrRef,
    kCompare,
    kArith,
    kAnd,
    kOr,
    kNot,
    /// COUNT(<node label>) — the number of atoms of one description node
    /// in the molecule under qualification. Only meaningful in molecule
    /// scope; the plain evaluator rejects it.
    kCount,
    /// FORALL <node label> (predicate) — true iff every atom of the node
    /// satisfies the predicate (vacuously true on empty groups). The dual
    /// of the default existential comparison semantics; molecule scope
    /// only.
    kForAll,
  };

  Kind kind() const { return kind_; }

  // kLiteral
  const Value& literal() const { return literal_; }
  // kAttrRef (qualifier empty for unqualified references); kCount reuses
  // qualifier() for the counted node label.
  const std::string& qualifier() const { return qualifier_; }
  const std::string& attribute() const { return attribute_; }
  // kCompare
  CompareOp compare_op() const { return compare_op_; }
  // kArith
  ArithOp arith_op() const { return arith_op_; }
  // kCompare / kArith / kAnd / kOr: left(), right(); kNot: left() only.
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Display form, e.g. "(point.name = 'pn')".
  std::string ToString() const;

  /// Collects every attribute reference in the tree (pre-order).
  void CollectAttrRefs(std::vector<const Expr*>* out) const;

  /// True iff this node can produce a boolean (predicate position).
  bool IsPredicate() const;

  /// A copy of this node over new operands (`rhs` null for NOT and FORALL).
  ExprPtr WithOperands(ExprPtr lhs, ExprPtr rhs) const;

  // Factories (use the free builder functions below for brevity).
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeAttrRef(std::string qualifier, std::string attribute);
  static ExprPtr MakeCount(std::string qualifier);
  static ExprPtr MakeForAll(std::string qualifier, ExprPtr predicate);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeNot(ExprPtr operand);

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  Kind kind_;
  Value literal_;
  std::string qualifier_;
  std::string attribute_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  ExprPtr left_;
  ExprPtr right_;
};

// ---- Terse builders ---------------------------------------------------------

/// Literal value.
ExprPtr Lit(Value v);
inline ExprPtr Lit(int64_t v) { return Lit(Value(v)); }
inline ExprPtr Lit(double v) { return Lit(Value(v)); }
inline ExprPtr Lit(const char* v) { return Lit(Value(v)); }
inline ExprPtr Lit(bool v) { return Lit(Value(v)); }

/// Unqualified attribute reference.
ExprPtr Attr(std::string attribute);
/// Qualified attribute reference, e.g. Attr("point", "name").
ExprPtr Attr(std::string qualifier, std::string attribute);

/// Component count of a description node, e.g. Count("edge").
ExprPtr Count(std::string qualifier);

/// Universal quantification over a node's atoms, e.g.
/// ForAll("edge", Gt(Attr("edge", "length"), Lit(0))).
ExprPtr ForAll(std::string qualifier, ExprPtr predicate);

ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);

ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Div(ExprPtr lhs, ExprPtr rhs);

ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);

}  // namespace expr
}  // namespace mad

#endif  // MAD_EXPR_EXPR_H_
