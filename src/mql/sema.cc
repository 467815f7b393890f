#include "mql/sema.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>
#include <utility>

#include "catalog/atom_type.h"
#include "catalog/link_type.h"
#include "core/data_type.h"
#include "core/schema.h"
#include "expr/expr.h"
#include "util/string_util.h"

namespace mad {
namespace mql {

const std::vector<std::string>& KnownSessionOptions() {
  static const std::vector<std::string> kOptions = {
      "PIN SNAPSHOT", "SYNC", "TRACE"};
  return kOptions;
}

namespace {

using expr::Expr;
using expr::ExprPtr;

Diagnostic& Emit(std::vector<Diagnostic>* out, DiagId id, std::string message,
                 SourceSpan span) {
  Diagnostic d;
  d.id = id;
  d.message = std::move(message);
  d.span = span;
  out->push_back(std::move(d));
  return out->back();
}

std::string Join(const std::vector<std::string>& parts) {
  std::string joined;
  for (const std::string& part : parts) {
    if (!joined.empty()) joined += ", ";
    joined += part;
  }
  return joined;
}

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

std::vector<std::string> AtomTypeNames(const Database& db) {
  std::vector<std::string> names;
  for (const AtomType* at : db.atom_types()) names.push_back(at->name());
  return names;
}

std::vector<std::string> LinkTypeNames(const Database& db) {
  std::vector<std::string> names;
  for (const LinkType* lt : db.link_types()) names.push_back(lt->name());
  return names;
}

std::vector<std::string> SchemaAttrNames(const Schema& schema) {
  std::vector<std::string> names;
  for (const AttributeDescription& ad : schema.attributes())
    names.push_back(ad.name);
  return names;
}

// ---- Scope model ------------------------------------------------------------

/// One node visible to qualification formulas: a description node (molecule
/// scope), the single atom type (atom scope), or root/member (recursive
/// scope). `schema == nullptr` means the atom type is unknown — already
/// reported — so lookups through it stay silent instead of cascading.
struct ScopeNode {
  std::string label;
  std::string type_name;
  const Schema* schema = nullptr;
  const std::vector<std::string>* narrowing = nullptr;  ///< null = all visible
  SourceSpan span;
};

enum class ScopeKind { kAtom, kMolecule, kRecursive };

bool NarrowedAway(const ScopeNode& node, const std::string& attr) {
  return node.narrowing != nullptr &&
         std::find(node.narrowing->begin(), node.narrowing->end(), attr) ==
             node.narrowing->end();
}

/// Mirror of MoleculeDescription::ResolveQualifier: exact label first, then
/// a unique type-name match. Emits MQL0104/MQL0109 on failure.
std::optional<size_t> ResolveScopeQualifier(const std::vector<ScopeNode>& nodes,
                                            const std::string& qualifier,
                                            SourceSpan span,
                                            std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].label == qualifier) return i;
  }
  std::vector<size_t> matches;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].type_name == qualifier) matches.push_back(i);
  }
  if (matches.size() == 1) return matches[0];
  if (matches.size() > 1) {
    Emit(out, DiagId::kAmbiguousQualifier,
         "qualifier '" + qualifier + "' matches several nodes; use a label",
         span);
  } else {
    Diagnostic& d = Emit(
        out, DiagId::kUnknownQualifier,
        "qualifier '" + qualifier +
            "' matches no node of the molecule description",
        span);
    std::vector<std::string> candidates;
    for (const ScopeNode& node : nodes) {
      candidates.push_back(node.label);
      if (node.type_name != node.label) candidates.push_back(node.type_name);
    }
    AddSuggestion(&d, qualifier, candidates);
  }
  return std::nullopt;
}

// ---- Expression analysis ----------------------------------------------------

bool ContainsForAll(const Expr& e) {
  if (e.kind() == Expr::Kind::kForAll) return true;
  if (e.left() != nullptr && ContainsForAll(*e.left())) return true;
  if (e.right() != nullptr && ContainsForAll(*e.right())) return true;
  return false;
}

/// Walks a qualification formula against a scope, mirroring what
/// eval.cc / qualification.cc reject eagerly (unknown names, misplaced
/// aggregates, non-predicates) plus the type errors they only hit lazily
/// per-atom (comparison and arithmetic over statically known types).
class ExprAnalyzer {
 public:
  struct UsedAttr {
    size_t node;  ///< index into the scope
    std::string attribute;
    SourceSpan span;
  };

  ExprAnalyzer(ScopeKind kind, const std::vector<ScopeNode>& nodes,
               const ExprSpanMap* spans, std::vector<Diagnostic>* out)
      : kind_(kind), nodes_(nodes), spans_(spans), out_(out) {}

  void CheckPredicate(const ExprPtr& e) {
    if (e != nullptr) Check(*e);
  }

  /// Value position (UPDATE assignments): inferred type, nullopt when
  /// unknown or already diagnosed.
  std::optional<DataType> CheckValue(const ExprPtr& e) {
    if (e == nullptr) return std::nullopt;
    return Infer(*e);
  }

  const std::vector<UsedAttr>& used_attrs() const { return used_attrs_; }
  const std::set<std::string>& used_labels() const { return used_labels_; }

 private:
  SourceSpan Span(const Expr& e) const {
    if (spans_ == nullptr) return SourceSpan{};
    auto it = spans_->find(&e);
    return it == spans_->end() ? SourceSpan{} : it->second;
  }

  void Check(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
        Check(*e.left());
        Check(*e.right());
        return;
      case Expr::Kind::kNot:
        Check(*e.left());
        return;
      case Expr::Kind::kForAll:
        CheckForAll(e);
        return;
      case Expr::Kind::kArith:
      case Expr::Kind::kCount:
        Infer(e);  // still surface operand and scope errors underneath
        Emit(out_, DiagId::kNonBooleanPredicate,
             "expression " + e.ToString() + " is not a predicate", Span(e));
        return;
      default: {
        std::optional<DataType> t = Infer(e);
        if (t.has_value() && *t != DataType::kBool) {
          Emit(out_, DiagId::kNonBooleanPredicate,
               "expression " + e.ToString() +
                   " is not a predicate (it evaluates to " +
                   DataTypeName(*t) + ")",
               Span(e));
        }
        return;
      }
    }
  }

  std::optional<DataType> Infer(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return e.literal().type();
      case Expr::Kind::kAttrRef: {
        auto resolved = ResolveAttr(e);
        if (!resolved.has_value()) return std::nullopt;
        used_labels_.insert(nodes_[resolved->first].label);
        used_attrs_.push_back(UsedAttr{resolved->first, e.attribute(), Span(e)});
        return resolved->second;
      }
      case Expr::Kind::kCompare: {
        std::optional<DataType> l = Infer(*e.left());
        std::optional<DataType> r = Infer(*e.right());
        if (l.has_value() && r.has_value() && *l != DataType::kNull &&
            *r != DataType::kNull && *l != *r &&
            !(IsNumeric(*l) && IsNumeric(*r))) {
          Emit(out_, DiagId::kComparisonTypeMismatch,
               std::string("cannot compare ") + DataTypeName(*l) + " with " +
                   DataTypeName(*r),
               Span(e));
        }
        return DataType::kBool;
      }
      case Expr::Kind::kArith: {
        std::optional<DataType> l = Infer(*e.left());
        std::optional<DataType> r = Infer(*e.right());
        bool bad = false;
        auto flag = [&](const std::optional<DataType>& t, const Expr& side) {
          if (t.has_value() && !IsNumeric(*t)) {
            bad = true;
            Emit(out_, DiagId::kNonNumericArithmetic,
                 "operand " + side.ToString() + " is not numeric (it has type " +
                     DataTypeName(*t) + ")",
                 Span(side).known() ? Span(side) : Span(e));
          }
        };
        flag(l, *e.left());
        flag(r, *e.right());
        if (bad) return std::nullopt;
        if (l.has_value() && r.has_value()) {
          return (*l == DataType::kInt64 && *r == DataType::kInt64)
                     ? DataType::kInt64
                     : DataType::kDouble;
        }
        return std::nullopt;
      }
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
        Check(*e.left());
        Check(*e.right());
        return DataType::kBool;
      case Expr::Kind::kNot:
        Check(*e.left());
        return DataType::kBool;
      case Expr::Kind::kCount: {
        if (kind_ != ScopeKind::kMolecule) {
          Emit(out_, DiagId::kAggregateInAtomScope,
               "COUNT(" + e.qualifier() +
                   ") is only valid in molecule-scope qualification",
               Span(e));
          return DataType::kInt64;
        }
        auto idx = ResolveScopeQualifier(nodes_, e.qualifier(), Span(e), out_);
        if (idx.has_value()) used_labels_.insert(nodes_[*idx].label);
        return DataType::kInt64;
      }
      case Expr::Kind::kForAll:
        return CheckForAll(e);
    }
    return std::nullopt;
  }

  DataType CheckForAll(const Expr& e) {
    if (kind_ != ScopeKind::kMolecule) {
      Emit(out_, DiagId::kAggregateInAtomScope,
           "FORALL " + e.qualifier() +
               ": quantifiers are only valid in molecule-scope qualification",
           Span(e));
      return DataType::kBool;
    }
    auto idx = ResolveScopeQualifier(nodes_, e.qualifier(), Span(e), out_);
    if (idx.has_value()) used_labels_.insert(nodes_[*idx].label);
    if (ContainsForAll(*e.left())) {
      Emit(out_, DiagId::kNestedForAll, "nested FORALL is not supported",
           Span(e));
      return DataType::kBool;
    }
    const size_t before = used_attrs_.size();
    Check(*e.left());
    if (idx.has_value()) {
      const std::string& label = nodes_[*idx].label;
      for (size_t i = before; i < used_attrs_.size(); ++i) {
        const UsedAttr& ua = used_attrs_[i];
        if (nodes_[ua.node].label == label) continue;
        Emit(out_, DiagId::kForAllForeignReference,
             "FORALL " + label + ": predicate may only reference '" + label +
                 "', found '" + nodes_[ua.node].label + "." + ua.attribute +
                 "'",
             ua.span);
      }
    }
    return DataType::kBool;
  }

  /// Resolves an attribute reference to (scope index, declared type).
  std::optional<std::pair<size_t, DataType>> ResolveAttr(const Expr& e) {
    const SourceSpan span = Span(e);
    const std::string& qualifier = e.qualifier();
    const std::string& attr = e.attribute();
    switch (kind_) {
      case ScopeKind::kAtom: {
        if (!qualifier.empty() && qualifier != nodes_[0].type_name) {
          Emit(out_, DiagId::kQualifierTypeMismatch,
               "qualifier '" + qualifier + "' does not match atom type '" +
                   nodes_[0].type_name + "'",
               span);
          return std::nullopt;
        }
        return LookupInNode(0, attr, span);
      }
      case ScopeKind::kRecursive: {
        size_t idx = 1;  // the recursion member, qualifiers default to it
        if (!qualifier.empty()) {
          if (qualifier == "root") {
            idx = 0;
          } else if (qualifier == nodes_[1].type_name) {
            idx = 1;
          } else {
            Emit(out_, DiagId::kInvalidRecursiveQualifier,
                 "recursive queries allow the qualifiers 'root' and '" +
                     nodes_[1].type_name + "'; found '" + qualifier + "'",
                 span);
            return std::nullopt;
          }
        }
        return LookupInNode(idx, attr, span);
      }
      case ScopeKind::kMolecule: {
        if (!qualifier.empty()) {
          auto idx = ResolveScopeQualifier(nodes_, qualifier, span, out_);
          if (!idx.has_value()) return std::nullopt;
          return LookupInNode(*idx, attr, span);
        }
        // Unqualified: a unique node where the attribute is visible.
        std::vector<size_t> hits;
        bool unknown_schema = false;
        for (size_t i = 0; i < nodes_.size(); ++i) {
          if (nodes_[i].schema == nullptr) {
            unknown_schema = true;
            continue;
          }
          if (nodes_[i].schema->HasAttribute(attr) &&
              !NarrowedAway(nodes_[i], attr)) {
            hits.push_back(i);
          }
        }
        if (hits.size() == 1) {
          return std::make_pair(
              hits[0],
              nodes_[hits[0]]
                  .schema->attribute(*nodes_[hits[0]].schema->IndexOf(attr))
                  .type);
        }
        if (hits.size() > 1) {
          Diagnostic& d = Emit(
              out_, DiagId::kAmbiguousAttribute,
              "ambiguous attribute '" + attr +
                  "' (qualify it with a node label)",
              span);
          std::vector<std::string> labels;
          for (size_t i : hits) labels.push_back(nodes_[i].label);
          d.notes.push_back(DiagNote{"candidates: " + Join(labels), {}});
          return std::nullopt;
        }
        if (unknown_schema) return std::nullopt;  // don't cascade
        Diagnostic& d = Emit(
            out_, DiagId::kUnknownAttribute,
            "attribute '" + attr + "' occurs in no node of the description",
            span);
        std::vector<std::string> candidates;
        for (const ScopeNode& node : nodes_) {
          for (const AttributeDescription& ad : node.schema->attributes()) {
            if (!NarrowedAway(node, ad.name)) candidates.push_back(ad.name);
          }
        }
        AddSuggestion(&d, attr, candidates);
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::optional<std::pair<size_t, DataType>> LookupInNode(size_t idx,
                                                          const std::string& attr,
                                                          SourceSpan span) {
    const ScopeNode& node = nodes_[idx];
    if (node.schema == nullptr) return std::nullopt;  // already reported
    if (!node.schema->HasAttribute(attr)) {
      Diagnostic& d =
          (kind_ == ScopeKind::kMolecule)
              ? Emit(out_, DiagId::kUnknownAttribute,
                     "node '" + node.label + "' has no attribute '" + attr +
                         "'",
                     span)
              : Emit(out_, DiagId::kUnknownAttribute,
                     "unknown attribute '" + attr + "' in atom type '" +
                         node.type_name + "'",
                     span);
      AddSuggestion(&d, attr, SchemaAttrNames(*node.schema));
      return std::nullopt;
    }
    if (NarrowedAway(node, attr)) {
      Emit(out_, DiagId::kUnknownAttribute,
           "attribute '" + attr + "' was projected away from node '" +
               node.label + "'",
           span);
      return std::nullopt;
    }
    return std::make_pair(idx,
                          node.schema->attribute(*node.schema->IndexOf(attr))
                              .type);
  }

  ScopeKind kind_;
  const std::vector<ScopeNode>& nodes_;
  const ExprSpanMap* spans_;
  std::vector<Diagnostic>* out_;
  std::vector<UsedAttr> used_attrs_;
  std::set<std::string> used_labels_;
};

// ---- Structure walking ------------------------------------------------------

struct StructureInfo {
  std::vector<ScopeNode> scope;  ///< unique labels, first-occurrence order
  std::vector<DescNode> nodes;   ///< every occurrence, for the graph check
  std::vector<DescLink> links;
};

/// Mirrors translator.cc's Collect + description.cc's link orientation
/// checks, emitting diagnostics instead of stopping at the first problem.
void WalkStructure(const Database& db, const StructureNode& node,
                   StructureInfo* info, std::vector<Diagnostic>* out) {
  info->nodes.push_back(DescNode{node.atom, node.atom, node.span});
  const Schema* schema = nullptr;
  if (auto at = db.GetAtomType(node.atom); at.ok()) {
    schema = &(*at)->description();
  } else {
    Diagnostic& d = Emit(out, DiagId::kUnknownAtomType,
                         "atom type '" + node.atom + "' not defined",
                         node.span);
    AddSuggestion(&d, node.atom, AtomTypeNames(db));
  }
  const bool first_occurrence =
      std::none_of(info->scope.begin(), info->scope.end(),
                   [&](const ScopeNode& n) { return n.label == node.atom; });
  if (first_occurrence) {
    info->scope.push_back(
        ScopeNode{node.atom, node.atom, schema, nullptr, node.span});
  }

  for (const StructureNode::Branch& branch : node.branches) {
    if (branch.recursive || branch.child == nullptr) {
      Emit(out, DiagId::kMisplacedRecursion,
           "a recursive step must be the only step of the structure",
           branch.link_span);
      continue;
    }
    const StructureNode& child = *branch.child;
    const bool endpoints_known =
        db.HasAtomType(node.atom) && db.HasAtomType(child.atom);
    std::string link_name;
    if (branch.link.has_value()) {
      link_name = *branch.link;
      auto lt = db.GetLinkType(link_name);
      if (!lt.ok()) {
        Diagnostic& d = Emit(out, DiagId::kUnknownLinkType,
                             "link type '" + link_name + "' not defined",
                             branch.link_span);
        AddSuggestion(&d, link_name, LinkTypeNames(db));
      } else if (endpoints_known) {
        const LinkType* l = *lt;
        const bool forward = l->first_atom_type() == node.atom &&
                             l->second_atom_type() == child.atom;
        const bool backward = l->first_atom_type() == child.atom &&
                              l->second_atom_type() == node.atom;
        if (l->reflexive()) {
          if (!forward) {
            Emit(out, DiagId::kLinkDirectionMismatch,
                 "reflexive link type '" + link_name +
                     "' does not connect node types '" + node.atom +
                     "' and '" + child.atom + "'",
                 branch.link_span);
          }
        } else if (!forward && !backward) {
          Emit(out, DiagId::kLinkDirectionMismatch,
               "link type '" + link_name + "' connects <" +
                   l->first_atom_type() + ", " + l->second_atom_type() +
                   ">, not <" + node.atom + ", " + child.atom + ">",
               branch.link_span);
        }
      }
    } else if (endpoints_known) {
      std::vector<std::string> candidates;
      for (const LinkType* l : db.link_types()) {
        const bool forward = l->first_atom_type() == node.atom &&
                             l->second_atom_type() == child.atom;
        const bool backward = l->first_atom_type() == child.atom &&
                              l->second_atom_type() == node.atom;
        if (forward || backward) candidates.push_back(l->name());
      }
      if (candidates.empty()) {
        Emit(out, DiagId::kNoConnectingLinkType,
             "no link type connects '" + node.atom + "' and '" + child.atom +
                 "'",
             branch.link_span);
      } else if (candidates.size() > 1) {
        Emit(out, DiagId::kAmbiguousImplicitLink,
             "several link types connect '" + node.atom + "' and '" +
                 child.atom + "' (" + Join(candidates) +
                 "); name one with -[link]-",
             branch.link_span);
      } else {
        link_name = candidates[0];
      }
    }
    info->links.push_back(DescLink{link_name.empty() ? "-" : link_name,
                                   node.atom, child.atom, branch.link_span});
    WalkStructure(db, child, info, out);
  }
}

}  // namespace

// ---- Def. 5 graph checking --------------------------------------------------

void CheckDescriptionGraph(const std::vector<DescNode>& nodes,
                           const std::vector<DescLink>& links,
                           std::vector<Diagnostic>* out) {
  if (nodes.empty()) return;

  // C is a set: duplicate labels (MQL0201).
  std::map<std::string, size_t> first;
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto [it, inserted] = first.insert({nodes[i].label, i});
    if (!inserted) {
      Diagnostic& d =
          Emit(out, DiagId::kDuplicateStructureAtom,
               "node '" + nodes[i].label +
                   "' occurs twice in the molecule description (Def. 5: C is "
                   "a set)",
               nodes[i].span);
      d.notes.push_back(
          DiagNote{"first occurrence is here", nodes[it->second].span});
    }
  }

  // Unique labels in first-occurrence order, for deterministic reports.
  std::vector<std::string> order;
  {
    std::vector<std::pair<size_t, std::string>> tmp;
    for (const auto& [label, idx] : first) tmp.push_back({idx, label});
    std::sort(tmp.begin(), tmp.end());
    for (auto& [idx, label] : tmp) order.push_back(std::move(label));
  }

  std::map<std::string, std::vector<std::string>> succ, pred, und;
  for (const std::string& label : order) {
    succ[label];
    pred[label];
    und[label];
  }
  for (const DescLink& l : links) {
    if (first.count(l.from) == 0 || first.count(l.to) == 0) continue;
    succ[l.from].push_back(l.to);
    pred[l.to].push_back(l.from);
    und[l.from].push_back(l.to);
    und[l.to].push_back(l.from);
  }

  // Acyclicity (MQL0205), via Kahn's algorithm; leftovers sit on or behind
  // a cycle, and walking predecessors inside the leftover set must revisit
  // a node — that revisit names a concrete cycle.
  std::map<std::string, size_t> indeg;
  for (const std::string& label : order) indeg[label] = pred[label].size();
  std::vector<std::string> ready;
  for (const std::string& label : order) {
    if (indeg[label] == 0) ready.push_back(label);
  }
  size_t removed = 0;
  while (!ready.empty()) {
    std::string cur = ready.back();
    ready.pop_back();
    ++removed;
    for (const std::string& next : succ[cur]) {
      if (--indeg[next] == 0) ready.push_back(next);
    }
  }
  if (removed < order.size()) {
    std::set<std::string> leftover;
    for (const std::string& label : order) {
      if (indeg[label] > 0) leftover.insert(label);
    }
    std::string start;
    for (const std::string& label : order) {
      if (leftover.count(label) > 0) {
        start = label;
        break;
      }
    }
    std::vector<std::string> path{start};
    std::map<std::string, size_t> pos{{start, 0}};
    std::vector<std::string> cycle;
    std::string cur = start;
    while (true) {
      const std::string* back = nullptr;
      for (const std::string& p : pred[cur]) {
        if (leftover.count(p) > 0) {
          back = &p;
          break;
        }
      }
      if (back == nullptr) break;  // unreachable: leftover indegrees > 0
      auto hit = pos.find(*back);
      if (hit != pos.end()) {
        // path[hit..end] walked backwards is a forward cycle.
        cycle.push_back(path[hit->second]);
        for (size_t i = path.size(); i-- > hit->second + 1;) {
          cycle.push_back(path[i]);
        }
        cycle.push_back(path[hit->second]);
        break;
      }
      pos[*back] = path.size();
      path.push_back(*back);
      cur = *back;
    }
    std::string rendered;
    for (const std::string& label : cycle) {
      if (!rendered.empty()) rendered += " -> ";
      rendered += label;
    }
    Emit(out, DiagId::kCyclicDescription,
         "the description graph has a cycle (" + rendered +
             "); Def. 5 requires a DAG",
         cycle.empty() ? SourceSpan{} : nodes[first[cycle[0]]].span);
  }

  // Coherence (MQL0207): one weakly connected component.
  std::map<std::string, size_t> comp;
  std::vector<std::string> representatives;
  for (const std::string& label : order) {
    if (comp.count(label) > 0) continue;
    const size_t id = representatives.size();
    representatives.push_back(label);
    std::vector<std::string> stack{label};
    comp[label] = id;
    while (!stack.empty()) {
      std::string cur = stack.back();
      stack.pop_back();
      for (const std::string& next : und[cur]) {
        if (comp.insert({next, id}).second) stack.push_back(next);
      }
    }
  }
  if (representatives.size() > 1) {
    Diagnostic& d =
        Emit(out, DiagId::kIncoherentDescription,
             "the description is not coherent: it falls apart into " +
                 std::to_string(representatives.size()) +
                 " disconnected components (Def. 5)",
             nodes[first[representatives[1]]].span);
    d.notes.push_back(DiagNote{"unconnected with this node",
                               nodes[first[representatives[0]]].span});
  }

  // Single root (MQL0206), per component so a cyclic component reports
  // only its cycle and a second component only the coherence failure.
  for (size_t id = 0; id < representatives.size(); ++id) {
    std::vector<std::string> roots;
    for (const std::string& label : order) {
      if (comp[label] == id && pred[label].empty()) roots.push_back(label);
    }
    if (roots.size() > 1) {
      Diagnostic& d = Emit(
          out, DiagId::kMultipleRoots,
          "the description has " + std::to_string(roots.size()) + " roots (" +
              Join(roots) + "); Def. 5 requires exactly one",
          nodes[first[roots[1]]].span);
      d.notes.push_back(
          DiagNote{"first root is here", nodes[first[roots[0]]].span});
    }
  }
}

// ---- Per-statement analysis -------------------------------------------------

namespace {

using Registry = std::map<std::string, MoleculeDescription>;

void BuildScopeFromDescription(const Database& db,
                               const MoleculeDescription& md,
                               std::vector<ScopeNode>* scope,
                               std::vector<std::pair<std::string, std::string>>*
                                   label_links) {
  for (const MoleculeNode& node : md.nodes()) {
    const Schema* schema = nullptr;
    if (auto at = db.GetAtomType(node.type_name); at.ok()) {
      schema = &(*at)->description();
    }
    scope->push_back(ScopeNode{
        node.label, node.type_name, schema,
        node.attributes.has_value() ? &*node.attributes : nullptr,
        SourceSpan{}});
  }
  for (const DirectedLink& link : md.links()) {
    label_links->push_back({link.from, link.to});
  }
}

void AnalyzeRecursiveSelect(const Database& db, const SelectStatement& stmt,
                            std::vector<Diagnostic>* out) {
  const StructureNode& root = *stmt.from.structure;
  const StructureNode::Branch& rb = root.branches[0];

  const Schema* schema = nullptr;
  if (auto at = db.GetAtomType(root.atom); at.ok()) {
    schema = &(*at)->description();
  } else {
    Diagnostic& d = Emit(out, DiagId::kUnknownAtomType,
                         "atom type '" + root.atom + "' not defined",
                         root.span);
    AddSuggestion(&d, root.atom, AtomTypeNames(db));
  }

  if (!rb.link.has_value()) {
    // The parser always names the link; mirror the translator's guard.
    Emit(out, DiagId::kMisplacedRecursion,
         "recursive steps need an explicit link name: atom-[link*]",
         rb.link_span);
  } else {
    auto lt = db.GetLinkType(*rb.link);
    if (!lt.ok()) {
      Diagnostic& d = Emit(out, DiagId::kUnknownLinkType,
                           "link type '" + *rb.link + "' not defined",
                           rb.link_span);
      AddSuggestion(&d, *rb.link, LinkTypeNames(db));
    } else if (schema != nullptr) {
      const LinkType* l = *lt;
      if (!l->reflexive() || l->first_atom_type() != root.atom) {
        Emit(out, DiagId::kNonReflexiveRecursion,
             "recursive derivation needs a reflexive link type on '" +
                 root.atom + "'; '" + l->name() + "' connects <" +
                 l->first_atom_type() + ", " + l->second_atom_type() + ">",
             rb.link_span);
      }
    }
  }

  if (rb.recursive_depth == 0) {
    Emit(out, DiagId::kZeroDepthRecursion,
         "recursion depth bound 0 derives only the root atom", rb.link_span);
  }
  if (!stmt.select_all) {
    Emit(out, DiagId::kRecursiveProjection,
         "recursive queries support SELECT ALL projections only",
         stmt.items.empty() ? root.span : stmt.items[0].label_span);
  }
  if (rb.child != nullptr) {
    StructureInfo tail;
    WalkStructure(db, *rb.child, &tail, out);
    CheckDescriptionGraph(tail.nodes, tail.links, out);
  }
  if (stmt.where != nullptr) {
    std::vector<ScopeNode> nodes;
    nodes.push_back(ScopeNode{"root", root.atom, schema, nullptr, root.span});
    nodes.push_back(
        ScopeNode{root.atom, root.atom, schema, nullptr, root.span});
    ExprAnalyzer analyzer(ScopeKind::kRecursive, nodes, &stmt.expr_spans, out);
    analyzer.CheckPredicate(stmt.where);
  }
}

void AnalyzeSelect(const Database& db, const Registry& registry,
                   const SelectStatement& stmt, std::vector<Diagnostic>* out) {
  if (stmt.from.structure == nullptr) return;
  const StructureNode& root = *stmt.from.structure;

  // MQL0501: registration names that shadow something (warning).
  if (!stmt.from.molecule_name.empty()) {
    const std::string& name = stmt.from.molecule_name;
    if (registry.count(name) > 0) {
      Emit(out, DiagId::kShadowedLabel,
           "registered molecule type '" + name +
               "' is redefined by this SELECT",
           stmt.from.name_span);
    } else if (db.HasAtomType(name)) {
      Emit(out, DiagId::kShadowedLabel,
           "molecule type '" + name + "' shadows the atom type '" + name +
               "'; a bare FROM " + name + " will now mean the molecule type",
           stmt.from.name_span);
    }
  }

  if (root.branches.size() == 1 && root.branches[0].recursive) {
    AnalyzeRecursiveSelect(db, stmt, out);
    return;
  }

  std::vector<ScopeNode> scope;
  std::vector<std::pair<std::string, std::string>> label_links;
  const bool bare = stmt.from.molecule_name.empty() && root.branches.empty();
  if (bare) {
    auto it = registry.find(root.atom);
    if (it != registry.end()) {
      BuildScopeFromDescription(db, it->second, &scope, &label_links);
    } else if (db.HasAtomType(root.atom)) {
      const Schema* schema = nullptr;
      if (auto at = db.GetAtomType(root.atom); at.ok()) {
        schema = &(*at)->description();
      }
      scope.push_back(
          ScopeNode{root.atom, root.atom, schema, nullptr, root.span});
    } else {
      Diagnostic& d = Emit(out, DiagId::kUnknownFromName,
                           "'" + root.atom +
                               "' names neither a registered molecule type "
                               "nor an atom type",
                           root.span);
      std::vector<std::string> candidates;
      for (const auto& [name, md] : registry) candidates.push_back(name);
      for (std::string& name : AtomTypeNames(db)) {
        candidates.push_back(std::move(name));
      }
      AddSuggestion(&d, root.atom, candidates);
      return;  // no scope — anything further would cascade
    }
  } else {
    StructureInfo info;
    WalkStructure(db, root, &info, out);
    CheckDescriptionGraph(info.nodes, info.links, out);
    scope = std::move(info.scope);
    for (const DescLink& link : info.links) {
      label_links.push_back({link.from, link.to});
    }
  }

  ExprAnalyzer analyzer(ScopeKind::kMolecule, scope, &stmt.expr_spans, out);
  if (stmt.where != nullptr) analyzer.CheckPredicate(stmt.where);

  // Projection items.
  std::set<std::string> kept;
  std::map<std::string, std::set<std::string>> narrowed;
  std::set<std::string> whole;
  if (!stmt.select_all) {
    for (const ProjectionItem& item : stmt.items) {
      auto idx = ResolveScopeQualifier(scope, item.label, item.label_span, out);
      if (!idx.has_value()) continue;
      const ScopeNode& node = scope[*idx];
      kept.insert(node.label);
      if (item.attribute.has_value()) {
        // Mirror MoleculeDescription::Create's narrowing validation; the
        // runtime checks against the atom type, not the current narrowing.
        if (node.schema != nullptr &&
            !node.schema->HasAttribute(*item.attribute)) {
          Diagnostic& d = Emit(out, DiagId::kUnknownAttribute,
                               "atom type '" + node.type_name +
                                   "' has no attribute '" + *item.attribute +
                                   "'",
                               item.attr_span);
          AddSuggestion(&d, *item.attribute, SchemaAttrNames(*node.schema));
        }
        narrowed[node.label].insert(*item.attribute);
      } else {
        whole.insert(node.label);
      }
    }
    for (const std::string& label : whole) narrowed.erase(label);
  }

  // MQL0503: the WHERE clause touches an attribute the SELECT list narrows
  // away — legal (restriction runs before projection), but worth a flag.
  if (!stmt.select_all) {
    for (const ExprAnalyzer::UsedAttr& ua : analyzer.used_attrs()) {
      const ScopeNode& node = scope[ua.node];
      auto it = narrowed.find(node.label);
      if (it != narrowed.end() && it->second.count(ua.attribute) == 0) {
        Emit(out, DiagId::kRestrictionOnNarrowedAttribute,
             "WHERE references '" + node.label + "." + ua.attribute +
                 "', which the SELECT list projects away (the restriction "
                 "still applies before projection)",
             ua.span);
      }
    }
  }

  // MQL0504: structure nodes that are neither projected, nor restricted,
  // nor needed to connect a used node to the root (projection closes over
  // ancestors, so ancestors of used nodes are load-bearing).
  if (!stmt.select_all && !kept.empty()) {
    std::set<std::string> closure = kept;
    for (const std::string& label : analyzer.used_labels()) {
      closure.insert(label);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [from, to] : label_links) {
        if (closure.count(to) > 0 && closure.insert(from).second) {
          changed = true;
        }
      }
    }
    for (const ScopeNode& node : scope) {
      if (closure.count(node.label) > 0) continue;
      Emit(out, DiagId::kUnusedStructureNode,
           "structure node '" + node.label +
               "' is not projected, not restricted, and not needed to "
               "connect projected nodes",
           node.span);
    }
  }
}

void AnalyzeCreateAtomType(const Database& db,
                           const CreateAtomTypeStatement& stmt,
                           std::vector<Diagnostic>* out) {
  if (db.HasAtomType(stmt.name)) {
    Emit(out, DiagId::kTypeAlreadyExists,
         "atom type '" + stmt.name + "' already defined", stmt.name_span);
  }
  std::map<std::string, size_t> seen;
  for (size_t i = 0; i < stmt.attributes.size(); ++i) {
    const std::string& attr = stmt.attributes[i].first;
    const SourceSpan span =
        i < stmt.attribute_spans.size() ? stmt.attribute_spans[i]
                                        : SourceSpan{};
    auto [it, inserted] = seen.insert({attr, i});
    if (!inserted) {
      Diagnostic& d = Emit(out, DiagId::kDuplicateAttribute,
                           "duplicate attribute '" + attr +
                               "' in atom type '" + stmt.name + "'",
                           span);
      if (it->second < stmt.attribute_spans.size()) {
        d.notes.push_back(DiagNote{"first declared here",
                                   stmt.attribute_spans[it->second]});
      }
    }
  }
}

void AnalyzeCreateLinkType(const Database& db,
                           const CreateLinkTypeStatement& stmt,
                           std::vector<Diagnostic>* out) {
  if (db.HasLinkType(stmt.name)) {
    Emit(out, DiagId::kTypeAlreadyExists,
         "link type '" + stmt.name + "' already defined", stmt.name_span);
  }
  auto check_endpoint = [&](const std::string& atom, SourceSpan span) {
    if (db.HasAtomType(atom)) return;
    Diagnostic& d = Emit(out, DiagId::kUnknownAtomType,
                         "atom type '" + atom + "' not defined", span);
    AddSuggestion(&d, atom, AtomTypeNames(db));
  };
  check_endpoint(stmt.first, stmt.first_span);
  check_endpoint(stmt.second, stmt.second_span);
}

void AnalyzeInsertAtom(const Database& db, const InsertAtomStatement& stmt,
                       std::vector<Diagnostic>* out) {
  auto at = db.GetAtomType(stmt.atom_type);
  if (!at.ok()) {
    Diagnostic& d = Emit(out, DiagId::kUnknownAtomType,
                         "atom type '" + stmt.atom_type + "' not defined",
                         stmt.type_span);
    AddSuggestion(&d, stmt.atom_type, AtomTypeNames(db));
    return;
  }
  const Schema& schema = (*at)->description();
  for (size_t i = 0; i < stmt.rows.size(); ++i) {
    const std::vector<Value>& row = stmt.rows[i];
    const SourceSpan row_span =
        i < stmt.row_spans.size() ? stmt.row_spans[i] : SourceSpan{};
    if (row.size() != schema.attribute_count()) {
      Emit(out, DiagId::kInsertArityMismatch,
           "row arity " + std::to_string(row.size()) +
               " does not match schema arity " +
               std::to_string(schema.attribute_count()),
           row_span);
      continue;
    }
    for (size_t j = 0; j < row.size(); ++j) {
      const Value& value = row[j];
      if (value.is_null() || value.type() == schema.attribute(j).type) {
        continue;
      }
      const SourceSpan span =
          (i < stmt.value_spans.size() && j < stmt.value_spans[i].size())
              ? stmt.value_spans[i][j]
              : row_span;
      Emit(out, DiagId::kValueTypeMismatch,
           "attribute '" + schema.attribute(j).name + "' expects " +
               DataTypeName(schema.attribute(j).type) + " but got " +
               DataTypeName(value.type()) + " (" + value.ToString() + ")",
           span);
    }
  }
}

void AnalyzeAtomPredicate(const Database& db, const std::string& atom_type,
                          const ExprPtr& predicate, const ExprSpanMap& spans,
                          std::vector<Diagnostic>* out) {
  if (predicate == nullptr) return;
  const Schema* schema = nullptr;
  if (auto at = db.GetAtomType(atom_type); at.ok()) {
    schema = &(*at)->description();
  }
  std::vector<ScopeNode> nodes{
      ScopeNode{atom_type, atom_type, schema, nullptr, SourceSpan{}}};
  ExprAnalyzer analyzer(ScopeKind::kAtom, nodes, &spans, out);
  analyzer.CheckPredicate(predicate);
}

void AnalyzeInsertLink(const Database& db, const InsertLinkStatement& stmt,
                       std::vector<Diagnostic>* out) {
  auto lt = db.GetLinkType(stmt.link_type);
  if (!lt.ok()) {
    Diagnostic& d = Emit(out, DiagId::kUnknownLinkType,
                         "link type '" + stmt.link_type + "' not defined",
                         stmt.link_span);
    AddSuggestion(&d, stmt.link_type, LinkTypeNames(db));
    return;
  }
  AnalyzeAtomPredicate(db, (*lt)->first_atom_type(), stmt.first_predicate,
                       stmt.expr_spans, out);
  AnalyzeAtomPredicate(db, (*lt)->second_atom_type(), stmt.second_predicate,
                       stmt.expr_spans, out);
}

void AnalyzeDelete(const Database& db, const DeleteStatement& stmt,
                   std::vector<Diagnostic>* out) {
  if (!db.HasAtomType(stmt.atom_type)) {
    Diagnostic& d = Emit(out, DiagId::kUnknownAtomType,
                         "atom type '" + stmt.atom_type + "' not defined",
                         stmt.type_span);
    AddSuggestion(&d, stmt.atom_type, AtomTypeNames(db));
    return;
  }
  AnalyzeAtomPredicate(db, stmt.atom_type, stmt.predicate, stmt.expr_spans,
                       out);
}

void AnalyzeUpdate(const Database& db, const UpdateStatement& stmt,
                   std::vector<Diagnostic>* out) {
  auto at = db.GetAtomType(stmt.atom_type);
  if (!at.ok()) {
    Diagnostic& d = Emit(out, DiagId::kUnknownAtomType,
                         "atom type '" + stmt.atom_type + "' not defined",
                         stmt.type_span);
    AddSuggestion(&d, stmt.atom_type, AtomTypeNames(db));
    return;
  }
  const Schema& schema = (*at)->description();
  std::vector<ScopeNode> nodes{ScopeNode{stmt.atom_type, stmt.atom_type,
                                         &schema, nullptr, SourceSpan{}}};
  ExprAnalyzer analyzer(ScopeKind::kAtom, nodes, &stmt.expr_spans, out);
  analyzer.CheckPredicate(stmt.predicate);

  for (size_t i = 0; i < stmt.assignments.size(); ++i) {
    const std::string& attr = stmt.assignments[i].first;
    const SourceSpan span =
        i < stmt.assignment_spans.size() ? stmt.assignment_spans[i]
                                         : SourceSpan{};
    std::optional<DataType> declared;
    auto idx = schema.IndexOf(attr);
    if (idx.ok()) {
      declared = schema.attribute(*idx).type;
    } else {
      Diagnostic& d = Emit(out, DiagId::kUnknownAttribute,
                           "unknown attribute '" + attr + "' in atom type '" +
                               stmt.atom_type + "'",
                           span);
      AddSuggestion(&d, attr, SchemaAttrNames(schema));
    }
    std::optional<DataType> inferred =
        analyzer.CheckValue(stmt.assignments[i].second);
    if (declared.has_value() && inferred.has_value() &&
        *inferred != DataType::kNull && *inferred != *declared) {
      Emit(out, DiagId::kValueTypeMismatch,
           "attribute '" + attr + "' expects " + DataTypeName(*declared) +
               " but got " + DataTypeName(*inferred),
           span);
    }
  }
}

void AnalyzeSetOption(const SetOptionStatement& stmt,
                      std::vector<Diagnostic>* out) {
  const std::vector<std::string>& options = KnownSessionOptions();
  std::string matched;
  for (const std::string& option : options) {
    if (EqualsIgnoreCase(stmt.option, option)) matched = option;
  }
  if (matched.empty()) {
    Diagnostic& d = Emit(out, DiagId::kUnknownSetOption,
                         "unknown session option '" + stmt.option +
                             "'; available: " + Join(options),
                         stmt.option_span);
    AddSuggestion(&d, stmt.option, options);
    return;
  }
  if (stmt.value != 0 && stmt.value != 1) {
    Emit(out, DiagId::kInvalidOptionValue,
         matched + " must be ON/1 or OFF/0", stmt.value_span);
  }
}

}  // namespace

std::vector<Diagnostic> AnalyzeStatement(const Database& db,
                                         const Registry& registry,
                                         const Statement& statement,
                                         const AnalyzerContext& context) {
  std::vector<Diagnostic> out;
  std::visit(
      [&](const auto& stmt) {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, SelectStatement>) {
          AnalyzeSelect(db, registry, stmt, &out);
        } else if constexpr (std::is_same_v<T, ExplainStatement>) {
          AnalyzeSelect(db, registry, stmt.select, &out);
        } else if constexpr (std::is_same_v<T, CreateAtomTypeStatement>) {
          AnalyzeCreateAtomType(db, stmt, &out);
        } else if constexpr (std::is_same_v<T, CreateLinkTypeStatement>) {
          AnalyzeCreateLinkType(db, stmt, &out);
        } else if constexpr (std::is_same_v<T, InsertAtomStatement>) {
          AnalyzeInsertAtom(db, stmt, &out);
        } else if constexpr (std::is_same_v<T, InsertLinkStatement>) {
          AnalyzeInsertLink(db, stmt, &out);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          AnalyzeDelete(db, stmt, &out);
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          AnalyzeUpdate(db, stmt, &out);
        } else if constexpr (std::is_same_v<T, SetOptionStatement>) {
          AnalyzeSetOption(stmt, &out);
        } else if constexpr (std::is_same_v<T, BeginStatement>) {
          if (context.in_transaction) {
            Emit(&out, DiagId::kNestedBegin,
                 "BEGIN inside an open transaction; MQL transactions do not "
                 "nest (the open transaction continues)",
                 SourceSpan{});
          }
        } else if constexpr (std::is_same_v<T, CommitStatement>) {
          if (!context.in_transaction) {
            Emit(&out, DiagId::kCommitWithoutBegin,
                 "COMMIT with no open transaction has no effect",
                 SourceSpan{});
          }
        } else if constexpr (std::is_same_v<T, RollbackStatement>) {
          if (!context.in_transaction) {
            Emit(&out, DiagId::kCommitWithoutBegin,
                 "ROLLBACK with no open transaction has no effect",
                 SourceSpan{});
          }
        }
        // CheckStatement: RunCheck analyzes the inner statement itself so
        // the diagnostics become the result, not an execution error.
        // ShowMetrics/ShowTransactions/Open/Checkpoint have nothing to
        // check statically.
      },
      statement);
  return out;
}

}  // namespace mql
}  // namespace mad
