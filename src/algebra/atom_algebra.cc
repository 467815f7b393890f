#include "algebra/atom_algebra.h"

#include <unordered_map>
#include <unordered_set>

#include "expr/eval.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mad {
namespace algebra {

namespace {

/// Inherits every link type touching `source` onto the identity-preserving
/// result type `result` (used by π, σ, ω, δ): the inherited occurrence is
/// the subset of links whose `source`-side atom survived into the result.
/// A reflexive link type is inherited as a reflexive link type on the
/// result (both ends filtered to survivors).
Result<std::vector<std::string>> InheritLinksIdentity(
    Database& db, const std::vector<std::string>& sources,
    const std::string& result) {
  std::vector<std::string> inherited;
  const AtomType* result_type = *db.GetAtomType(result);

  // Snapshot the link-type list first: we add link types while iterating.
  struct Item {
    std::string lname;
    std::string first;
    std::string second;
  };
  std::vector<Item> todo;
  std::unordered_set<std::string> source_set(sources.begin(), sources.end());
  for (const std::string& source : sources) {
    for (const LinkType* lt : db.LinkTypesTouching(source)) {
      todo.push_back(Item{lt->name(), lt->first_atom_type(),
                          lt->second_atom_type()});
    }
  }
  // A link type touching two distinct sources is collected twice; dedupe.
  std::unordered_set<std::string> seen;

  for (const Item& item : todo) {
    if (!seen.insert(item.lname).second) continue;
    const LinkType* lt = *db.GetLinkType(item.lname);

    bool first_is_source = source_set.count(item.first) > 0;
    bool second_is_source = source_set.count(item.second) > 0;
    std::string new_first = first_is_source ? result : item.first;
    std::string new_second = second_is_source ? result : item.second;

    std::string new_name = db.UniqueLinkTypeName(item.lname + "@" + result);
    MAD_RETURN_IF_ERROR(db.DefineLinkType(new_name, new_first, new_second));
    for (const Link& link : lt->occurrence().links()) {
      if (first_is_source && !result_type->occurrence().Contains(link.first)) {
        continue;
      }
      if (second_is_source &&
          !result_type->occurrence().Contains(link.second)) {
        continue;
      }
      MAD_RETURN_IF_ERROR(db.InsertLink(new_name, link.first, link.second));
    }
    inherited.push_back(new_name);
  }
  return inherited;
}

/// Product-style inheritance shared by × and the derived theta-join: each
/// role of each operand link type is inherited separately; a result atom
/// a1&a2 takes over the links of both components. `provenance` holds
/// (result id, left component, right component) per result atom.
Result<std::vector<std::string>> InheritLinksProduct(
    Database& db, const std::string& name, const std::string& left,
    const std::string& right,
    const std::vector<std::tuple<AtomId, AtomId, AtomId>>& provenance) {
  struct Item {
    std::string lname;
    bool component_is_first;  // operand atom plays the link's first role
    bool left_component;      // inherit through the left or right component
  };
  std::vector<Item> todo;
  for (const LinkType* l : db.LinkTypesTouching(left)) {
    if (l->first_atom_type() == left) todo.push_back({l->name(), true, true});
    if (l->second_atom_type() == left) todo.push_back({l->name(), false, true});
  }
  for (const LinkType* l : db.LinkTypesTouching(right)) {
    if (l->first_atom_type() == right) todo.push_back({l->name(), true, false});
    if (l->second_atom_type() == right) {
      todo.push_back({l->name(), false, false});
    }
  }

  std::vector<std::string> inherited;
  for (const Item& item : todo) {
    const LinkType* l = *db.GetLinkType(item.lname);
    std::string other = item.component_is_first ? l->second_atom_type()
                                                : l->first_atom_type();
    std::string new_name = db.UniqueLinkTypeName(item.lname + "@" + name);
    if (item.component_is_first) {
      MAD_RETURN_IF_ERROR(db.DefineLinkType(new_name, name, other));
    } else {
      MAD_RETURN_IF_ERROR(db.DefineLinkType(new_name, other, name));
    }
    for (const auto& [id, l_src, r_src] : provenance) {
      AtomId component = item.left_component ? l_src : r_src;
      LinkDirection dir = item.component_is_first ? LinkDirection::kForward
                                                  : LinkDirection::kBackward;
      for (AtomId partner : l->occurrence().Partners(component, dir)) {
        Status s = item.component_is_first
                       ? db.InsertLink(new_name, id, partner)
                       : db.InsertLink(new_name, partner, id);
        // Distinct source links may map onto the same inherited pair.
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
      }
    }
    inherited.push_back(new_name);
  }
  return inherited;
}

std::string PickAtomTypeName(Database& db, const std::string& requested,
                             const std::string& fallback_prefix) {
  if (!requested.empty()) return requested;
  return db.UniqueAtomTypeName(fallback_prefix);
}

/// Detects the indexable pattern `attr = literal` (either operand order,
/// qualifier absent or equal to `source`). Returns true and fills the
/// outputs on a match.
bool MatchEqualityPattern(const expr::Expr& predicate,
                          const std::string& source, std::string* attribute,
                          Value* literal) {
  if (predicate.kind() != expr::Expr::Kind::kCompare ||
      predicate.compare_op() != expr::CompareOp::kEq) {
    return false;
  }
  const expr::Expr* lhs = predicate.left().get();
  const expr::Expr* rhs = predicate.right().get();
  if (lhs->kind() == expr::Expr::Kind::kLiteral &&
      rhs->kind() == expr::Expr::Kind::kAttrRef) {
    std::swap(lhs, rhs);
  }
  if (lhs->kind() != expr::Expr::Kind::kAttrRef ||
      rhs->kind() != expr::Expr::Kind::kLiteral) {
    return false;
  }
  if (!lhs->qualifier().empty() && lhs->qualifier() != source) return false;
  *attribute = lhs->attribute();
  *literal = rhs->literal();
  return true;
}

/// Occurrence size of `aname` for span cardinalities; -1 if unknown.
int64_t OccurrenceSize(const Database& db, const std::string& aname) {
  auto at = db.GetAtomType(aname);
  return at.ok() ? static_cast<int64_t>((*at)->occurrence().size()) : -1;
}

}  // namespace

Result<OpResult> Project(Database& db, const std::string& source,
                         const std::vector<std::string>& attributes,
                         const std::string& result_name,
                         const AlgebraOptions& options) {
  static Counter& ops = Registry::Global().GetCounter("atom_ops.pi");
  ops.Increment();
  ScopedSpan span("atom.pi", source);
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(source));
  span.set_rows_in(static_cast<int64_t>(at->occurrence().size()));
  span.set_rows_out(static_cast<int64_t>(at->occurrence().size()));
  MAD_ASSIGN_OR_RETURN(Schema projected, at->description().Project(attributes));

  std::vector<size_t> indexes;
  indexes.reserve(attributes.size());
  for (const std::string& name : attributes) {
    MAD_ASSIGN_OR_RETURN(size_t idx, at->description().IndexOf(name));
    indexes.push_back(idx);
  }

  std::string name = PickAtomTypeName(db, result_name, "project(" + source + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, std::move(projected)));
  for (const Atom& atom : at->occurrence().atoms()) {
    std::vector<Value> values;
    values.reserve(indexes.size());
    for (size_t idx : indexes) values.push_back(atom.values[idx]);
    MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, atom.id, std::move(values)));
  }

  OpResult result{name, {}};
  if (options.inherit_links) {
    MAD_ASSIGN_OR_RETURN(result.inherited_link_types,
                         InheritLinksIdentity(db, {source}, name));
  }
  return result;
}

Result<OpResult> Restrict(Database& db, const std::string& source,
                          const expr::ExprPtr& predicate,
                          const std::string& result_name,
                          const AlgebraOptions& options) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("restriction predicate must be non-null");
  }
  static Counter& ops = Registry::Global().GetCounter("atom_ops.sigma");
  ops.Increment();
  ScopedSpan span("atom.sigma", [&] { return predicate->ToString(); });
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(source));
  span.set_rows_in(static_cast<int64_t>(at->occurrence().size()));
  MAD_RETURN_IF_ERROR(
      expr::ValidateAgainstSchema(*predicate, source, at->description()));

  std::string name =
      PickAtomTypeName(db, result_name, "restrict(" + source + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, at->description()));

  // Equality fast path: a point predicate over an indexed attribute avoids
  // the scan entirely.
  std::string eq_attribute;
  Value eq_literal;
  if (MatchEqualityPattern(*predicate, source, &eq_attribute, &eq_literal) &&
      db.FindIndex(source, eq_attribute) != nullptr) {
    MAD_ASSIGN_OR_RETURN(std::vector<AtomId> matches,
                         db.LookupByAttribute(source, eq_attribute, eq_literal));
    for (AtomId id : matches) {
      const Atom* atom = at->occurrence().Find(id);
      if (atom == nullptr) continue;
      MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, id, atom->values));
    }
  } else {
    for (const Atom& atom : at->occurrence().atoms()) {
      MAD_ASSIGN_OR_RETURN(
          bool keep,
          expr::EvalOnAtom(*predicate, source, at->description(), atom));
      if (!keep) continue;
      MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, atom.id, atom.values));
    }
  }

  span.set_rows_out(OccurrenceSize(db, name));
  OpResult result{name, {}};
  if (options.inherit_links) {
    MAD_ASSIGN_OR_RETURN(result.inherited_link_types,
                         InheritLinksIdentity(db, {source}, name));
  }
  return result;
}

Result<OpResult> Rename(Database& db, const std::string& source,
                        const std::vector<std::pair<std::string, std::string>>&
                            renames,
                        const std::string& result_name,
                        const AlgebraOptions& options) {
  static Counter& ops = Registry::Global().GetCounter("atom_ops.rho");
  ops.Increment();
  ScopedSpan span("atom.rho", source);
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(source));
  span.set_rows_in(static_cast<int64_t>(at->occurrence().size()));
  span.set_rows_out(static_cast<int64_t>(at->occurrence().size()));
  Schema renamed = at->description();
  for (const auto& [from, to] : renames) {
    MAD_RETURN_IF_ERROR(renamed.RenameAttribute(from, to));
  }

  std::string name =
      PickAtomTypeName(db, result_name, "rename(" + source + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, std::move(renamed)));
  for (const Atom& atom : at->occurrence().atoms()) {
    MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, atom.id, atom.values));
  }

  OpResult result{name, {}};
  if (options.inherit_links) {
    MAD_ASSIGN_OR_RETURN(result.inherited_link_types,
                         InheritLinksIdentity(db, {source}, name));
  }
  return result;
}

Result<OpResult> CartesianProduct(Database& db, const std::string& left,
                                  const std::string& right,
                                  const std::string& result_name,
                                  const AlgebraOptions& options) {
  static Counter& ops = Registry::Global().GetCounter("atom_ops.x");
  ops.Increment();
  ScopedSpan span("atom.x", [&] { return left + " x " + right; });
  MAD_ASSIGN_OR_RETURN(const AtomType* lt, db.GetAtomType(left));
  MAD_ASSIGN_OR_RETURN(const AtomType* rt, db.GetAtomType(right));
  span.set_rows_in(
      static_cast<int64_t>(lt->occurrence().size() + rt->occurrence().size()));
  if (left == right) {
    return Status::InvalidArgument(
        "cartesian product operands must be distinct atom types (project or "
        "rename first)");
  }
  MAD_ASSIGN_OR_RETURN(Schema combined,
                       lt->description().ConcatDisjoint(rt->description()));

  std::string name =
      PickAtomTypeName(db, result_name, "x(" + left + "," + right + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, std::move(combined)));

  // new result atom id -> (left component, right component)
  std::vector<std::tuple<AtomId, AtomId, AtomId>> provenance;
  provenance.reserve(lt->occurrence().size() * rt->occurrence().size());
  for (const Atom& a1 : lt->occurrence().atoms()) {
    for (const Atom& a2 : rt->occurrence().atoms()) {
      std::vector<Value> values = a1.values;
      values.insert(values.end(), a2.values.begin(), a2.values.end());
      AtomId id = db.NewAtomId();
      MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, id, std::move(values)));
      provenance.emplace_back(id, a1.id, a2.id);
    }
  }

  span.set_rows_out(static_cast<int64_t>(provenance.size()));
  OpResult result{name, {}};
  if (!options.inherit_links) return result;
  MAD_ASSIGN_OR_RETURN(result.inherited_link_types,
                       InheritLinksProduct(db, name, left, right, provenance));
  return result;
}

Result<OpResult> Join(Database& db, const std::string& left,
                      const std::string& right,
                      const expr::ExprPtr& predicate,
                      const std::string& result_name,
                      const AlgebraOptions& options) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("join predicate must be non-null");
  }
  static Counter& ops = Registry::Global().GetCounter("atom_ops.join");
  ops.Increment();
  ScopedSpan span("atom.join", [&] { return predicate->ToString(); });
  MAD_ASSIGN_OR_RETURN(const AtomType* lt, db.GetAtomType(left));
  MAD_ASSIGN_OR_RETURN(const AtomType* rt, db.GetAtomType(right));
  span.set_rows_in(
      static_cast<int64_t>(lt->occurrence().size() + rt->occurrence().size()));
  if (left == right) {
    return Status::InvalidArgument(
        "join operands must be distinct atom types (rename first)");
  }
  MAD_ASSIGN_OR_RETURN(Schema combined,
                       lt->description().ConcatDisjoint(rt->description()));

  // Validate the predicate's references against the two operands up front.
  std::vector<const expr::Expr*> refs;
  predicate->CollectAttrRefs(&refs);
  for (const expr::Expr* ref : refs) {
    if (!ref->qualifier().empty() && ref->qualifier() != left &&
        ref->qualifier() != right) {
      return Status::InvalidArgument("qualifier '" + ref->qualifier() +
                                     "' names neither join operand");
    }
    if (!combined.HasAttribute(ref->attribute())) {
      return Status::NotFound("unknown attribute '" + ref->attribute() +
                              "' in join operands");
    }
  }
  if (!predicate->IsPredicate()) {
    return Status::InvalidArgument("join condition is not a predicate");
  }

  std::string name =
      PickAtomTypeName(db, result_name, "join(" + left + "," + right + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, std::move(combined)));

  std::vector<std::tuple<AtomId, AtomId, AtomId>> provenance;
  for (const Atom& a1 : lt->occurrence().atoms()) {
    for (const Atom& a2 : rt->occurrence().atoms()) {
      expr::BindingSet bindings;
      bindings.Bind(left, &lt->description(), &a1);
      bindings.Bind(right, &rt->description(), &a2);
      MAD_ASSIGN_OR_RETURN(bool keep, expr::EvalPredicate(*predicate, bindings));
      if (!keep) continue;
      std::vector<Value> values = a1.values;
      values.insert(values.end(), a2.values.begin(), a2.values.end());
      AtomId id = db.NewAtomId();
      MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, id, std::move(values)));
      provenance.emplace_back(id, a1.id, a2.id);
    }
  }

  span.set_rows_out(static_cast<int64_t>(provenance.size()));
  OpResult result{name, {}};
  if (options.inherit_links) {
    MAD_ASSIGN_OR_RETURN(
        result.inherited_link_types,
        InheritLinksProduct(db, name, left, right, provenance));
  }
  return result;
}

namespace {

Status CheckUnionCompatible(const AtomType& left, const AtomType& right) {
  if (left.description() != right.description()) {
    return Status::InvalidArgument(
        "operands must have identical descriptions: " +
        left.description().ToString() + " vs " +
        right.description().ToString());
  }
  return Status::OK();
}

}  // namespace

Result<OpResult> Union(Database& db, const std::string& left,
                       const std::string& right,
                       const std::string& result_name,
                       const AlgebraOptions& options) {
  static Counter& ops = Registry::Global().GetCounter("atom_ops.omega");
  ops.Increment();
  ScopedSpan span("atom.omega", [&] { return left + " + " + right; });
  MAD_ASSIGN_OR_RETURN(const AtomType* lt, db.GetAtomType(left));
  MAD_ASSIGN_OR_RETURN(const AtomType* rt, db.GetAtomType(right));
  MAD_RETURN_IF_ERROR(CheckUnionCompatible(*lt, *rt));
  span.set_rows_in(
      static_cast<int64_t>(lt->occurrence().size() + rt->occurrence().size()));

  std::string name =
      PickAtomTypeName(db, result_name, "union(" + left + "," + right + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, lt->description()));
  for (const Atom& atom : lt->occurrence().atoms()) {
    MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, atom.id, atom.values));
  }
  for (const Atom& atom : rt->occurrence().atoms()) {
    if (lt->occurrence().Contains(atom.id)) continue;  // left wins
    MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, atom.id, atom.values));
  }

  span.set_rows_out(OccurrenceSize(db, name));
  OpResult result{name, {}};
  if (options.inherit_links) {
    std::vector<std::string> sources = {left};
    if (right != left) sources.push_back(right);
    MAD_ASSIGN_OR_RETURN(result.inherited_link_types,
                         InheritLinksIdentity(db, sources, name));
  }
  return result;
}

Result<OpResult> Difference(Database& db, const std::string& left,
                            const std::string& right,
                            const std::string& result_name,
                            const AlgebraOptions& options) {
  static Counter& ops = Registry::Global().GetCounter("atom_ops.delta");
  ops.Increment();
  ScopedSpan span("atom.delta", [&] { return left + " - " + right; });
  MAD_ASSIGN_OR_RETURN(const AtomType* lt, db.GetAtomType(left));
  MAD_ASSIGN_OR_RETURN(const AtomType* rt, db.GetAtomType(right));
  MAD_RETURN_IF_ERROR(CheckUnionCompatible(*lt, *rt));
  span.set_rows_in(static_cast<int64_t>(lt->occurrence().size()));

  std::string name =
      PickAtomTypeName(db, result_name, "diff(" + left + "," + right + ")");
  MAD_RETURN_IF_ERROR(db.DefineAtomType(name, lt->description()));
  for (const Atom& atom : lt->occurrence().atoms()) {
    if (rt->occurrence().Contains(atom.id)) continue;
    MAD_RETURN_IF_ERROR(db.InsertAtomWithId(name, atom.id, atom.values));
  }

  span.set_rows_out(OccurrenceSize(db, name));
  OpResult result{name, {}};
  if (options.inherit_links) {
    // All result atoms stem from the left operand; only its links apply.
    MAD_ASSIGN_OR_RETURN(result.inherited_link_types,
                         InheritLinksIdentity(db, {left}, name));
  }
  return result;
}

Result<OpResult> Intersection(Database& db, const std::string& left,
                              const std::string& right,
                              const std::string& result_name,
                              const AlgebraOptions& options) {
  static Counter& ops = Registry::Global().GetCounter("atom_ops.psi");
  ops.Increment();
  ScopedSpan span("atom.psi", [&] { return left + " & " + right; });
  // Ψ(at1, at2) = δ(at1, δ(at1, at2)) — the paper's derived-operator recipe
  // applied at the atom-type level. The intermediate result is dropped.
  AlgebraOptions quiet = options;
  quiet.inherit_links = false;
  MAD_ASSIGN_OR_RETURN(OpResult inner,
                       Difference(db, left, right, "", quiet));
  auto outer = Difference(db, left, inner.atom_type, result_name, options);
  MAD_RETURN_IF_ERROR(db.DropAtomType(inner.atom_type));
  return outer;
}

}  // namespace algebra
}  // namespace mad
