#include "mql/optimizer.h"

#include <algorithm>
#include <map>
#include <set>

#include "mql/translator.h"

namespace mad {
namespace mql {

namespace {

/// Attribute references bind nodes; COUNT(x) and FORALL x(...) bind their
/// quantified node even without attribute references underneath.
Status CollectNodeRefs(const Database& db, const MoleculeDescription& md,
                       const expr::Expr& node, std::set<size_t>* out) {
  switch (node.kind()) {
    case expr::Expr::Kind::kAttrRef: {
      MAD_ASSIGN_OR_RETURN(size_t idx,
                           expr::ResolveAttributeNode(db, md, node));
      out->insert(idx);
      return Status::OK();
    }
    case expr::Expr::Kind::kCount: {
      MAD_ASSIGN_OR_RETURN(size_t idx, md.ResolveQualifier(node.qualifier()));
      out->insert(idx);
      return Status::OK();
    }
    case expr::Expr::Kind::kForAll: {
      MAD_ASSIGN_OR_RETURN(size_t idx, md.ResolveQualifier(node.qualifier()));
      out->insert(idx);
      return CollectNodeRefs(db, md, *node.left(), out);
    }
    default:
      if (node.left() != nullptr) {
        MAD_RETURN_IF_ERROR(CollectNodeRefs(db, md, *node.left(), out));
      }
      if (node.right() != nullptr) {
        MAD_RETURN_IF_ERROR(CollectNodeRefs(db, md, *node.right(), out));
      }
      return Status::OK();
  }
}

void CollectConjuncts(const expr::ExprPtr& node,
                      std::vector<expr::ExprPtr>* out) {
  if (node->kind() == expr::Expr::Kind::kAnd) {
    CollectConjuncts(node->left(), out);
    CollectConjuncts(node->right(), out);
    return;
  }
  out->push_back(node);
}

expr::ExprPtr AndAll(const std::vector<expr::ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  expr::ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = expr::And(result, conjuncts[i]);
  }
  return result;
}

/// Matches the root filter's first conjunct against the seed rule (see
/// IndexSeed): `attr ⊕ literal` or `literal ⊕ attr` over a root attribute,
/// seeding from the index for an indexed equality, else from the column.
void MatchSeed(const Database& db, const MoleculeDescription& md,
               const expr::Expr& conjunct, PushdownPlan* plan) {
  if (conjunct.kind() != expr::Expr::Kind::kCompare) return;
  const expr::Expr* attr = conjunct.left().get();
  const expr::Expr* lit = conjunct.right().get();
  const bool attr_on_left = attr->kind() == expr::Expr::Kind::kAttrRef;
  if (!attr_on_left) std::swap(attr, lit);
  if (attr->kind() != expr::Expr::Kind::kAttrRef ||
      lit->kind() != expr::Expr::Kind::kLiteral) {
    return;
  }
  const std::string& type = md.root_node().type_name;
  auto at = db.GetAtomType(type);
  if (!at.ok()) return;
  const Schema& schema = (*at)->description();
  auto slot = schema.IndexOf(attr->attribute());
  if (!slot.ok()) return;
  // A bucket cannot raise the comparison's type error, so only a literal of
  // the attribute's own type seeds from the index.
  const AttributeIndex* index = db.FindIndex(type, attr->attribute());
  if (index != nullptr && conjunct.compare_op() == expr::CompareOp::kEq &&
      lit->literal().type() == schema.attribute(*slot).type) {
    plan->seed = IndexSeed{index, attr->attribute(), lit->literal()};
    return;
  }
  plan->scan_seed = ScanSeed{attr->attribute(), *slot, conjunct.compare_op(),
                             lit->literal(), attr_on_left, conjunct.ToString()};
}

/// Rewrites a recursive WHERE onto SelectPlan::closure: `root.attr` stays
/// on the root node, `attr` and `<type>.attr` move to `member`.
Result<expr::ExprPtr> BindClosureRefs(const expr::ExprPtr& e,
                                      const std::string& type,
                                      const std::string& member) {
  using K = expr::Expr::Kind;
  switch (e->kind()) {
    case K::kLiteral:
      return e;
    case K::kAttrRef:
      if (e->qualifier() == "root") return e;
      if (!e->qualifier().empty() && e->qualifier() != type) {
        return Status::InvalidArgument(
            "recursive queries allow the qualifiers 'root' and '" + type +
            "'; found '" + e->qualifier() + "'");
      }
      return expr::Expr::MakeAttrRef(member, e->attribute());
    case K::kCount:
      return Status::InvalidArgument(
          "COUNT(" + e->qualifier() +
          ") is only valid in molecule-scope qualification");
    case K::kForAll:
      return Status::InvalidArgument(
          "FORALL is only valid in molecule-scope qualification");
    default:
      break;
  }
  MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs,
                       BindClosureRefs(e->left(), type, member));
  expr::ExprPtr rhs;
  if (e->right() != nullptr) {
    MAD_ASSIGN_OR_RETURN(rhs, BindClosureRefs(e->right(), type, member));
  }
  return e->WithOperands(std::move(lhs), std::move(rhs));
}

/// The recursive half of PlanSelect.
Status PlanRecursive(const Database& db, const SelectStatement& stmt,
                     const ReadView& view, TranslatedFrom from,
                     SelectPlan* plan) {
  if (!stmt.select_all) {
    return Status::Unsupported(
        "recursive queries support SELECT ALL projections only");
  }
  const RecursiveDescription& rd = plan->recursive.emplace(*from.recursive);
  if (from.recursive_expansion.has_value()) {
    plan->expansion = std::make_unique<const MoleculeDescription>(
        *std::move(from.recursive_expansion));
  }
  if (stmt.where == nullptr) return Status::OK();
  const std::string member = rd.atom_type == "root" ? "member" : rd.atom_type;
  MAD_ASSIGN_OR_RETURN(
      MoleculeDescription closure,
      MoleculeDescription::Create(
          db, {{rd.atom_type, "root", std::nullopt},
               {rd.atom_type, member, std::nullopt}},
          {{rd.link_type, "root", member,
            rd.direction == LinkDirection::kBackward}}));
  plan->closure =
      std::make_unique<const MoleculeDescription>(std::move(closure));
  MAD_ASSIGN_OR_RETURN(expr::ExprPtr bound,
                       BindClosureRefs(stmt.where, rd.atom_type, member));
  MAD_ASSIGN_OR_RETURN(
      expr::CompiledPredicate program,
      expr::CompiledPredicate::Compile(db, *plan->closure, bound, view));
  plan->closure_program.emplace(std::move(program));
  return Status::OK();
}

}  // namespace

Result<std::vector<size_t>> ReferencedNodes(const Database& db,
                                            const MoleculeDescription& md,
                                            const expr::Expr& node) {
  std::set<size_t> refs;
  MAD_RETURN_IF_ERROR(CollectNodeRefs(db, md, node, &refs));
  return std::vector<size_t>(refs.begin(), refs.end());
}

Result<PushdownPlan> PlanPredicatePushdown(const Database& db,
                                           const MoleculeDescription& md,
                                           const expr::ExprPtr& predicate) {
  PushdownPlan plan;
  if (predicate == nullptr) return plan;

  MAD_ASSIGN_OR_RETURN(size_t root_idx, md.NodeIndex(md.root_label()));

  std::vector<expr::ExprPtr> conjuncts;
  CollectConjuncts(predicate, &conjuncts);

  // Group single-node conjuncts per node (original order within a node),
  // keep everything else residual.
  std::map<size_t, std::vector<expr::ExprPtr>> per_node;
  std::vector<expr::ExprPtr> residual_side;
  for (const expr::ExprPtr& conjunct : conjuncts) {
    MAD_ASSIGN_OR_RETURN(std::vector<size_t> nodes,
                         ReferencedNodes(db, md, *conjunct));
    if (nodes.size() == 1) {
      per_node[nodes[0]].push_back(conjunct);
    } else {
      // Constants (no references) and multi-node conjuncts.
      residual_side.push_back(conjunct);
    }
  }

  for (const auto& [node_idx, node_conjuncts] : per_node) {
    NodeFilter filter;
    filter.node_index = node_idx;
    filter.predicate = AndAll(node_conjuncts);
    plan.node_filters.push_back(std::move(filter));
  }
  plan.residual = AndAll(residual_side);
  auto root_group = per_node.find(root_idx);
  if (root_group != per_node.end()) {
    MatchSeed(db, md, *root_group->second.front(), &plan);
  }
  return plan;
}

Result<SelectPlan> PlanSelect(
    const Database& db,
    const std::map<std::string, MoleculeDescription>& registry,
    const SelectStatement& stmt, const ReadView& view) {
  SelectPlan plan;
  plan.name =
      stmt.from.molecule_name.empty() ? "query" : stmt.from.molecule_name;
  plan.where = stmt.where;
  const StructureNode& root = *stmt.from.structure;
  auto registered = stmt.from.molecule_name.empty() && root.branches.empty()
                        ? registry.find(root.atom)
                        : registry.end();
  if (registered != registry.end()) {
    plan.name = registered->first;
    plan.description =
        std::make_unique<const MoleculeDescription>(registered->second);
  } else {
    MAD_ASSIGN_OR_RETURN(TranslatedFrom from, TranslateStructure(db, root));
    if (from.recursive.has_value()) {
      MAD_RETURN_IF_ERROR(
          PlanRecursive(db, stmt, view, std::move(from), &plan));
      return plan;
    }
    plan.description = std::make_unique<const MoleculeDescription>(
        *std::move(from.description));
  }
  const MoleculeDescription& md = *plan.description;

  if (stmt.where != nullptr) {
    MAD_ASSIGN_OR_RETURN(plan.pushdown,
                         PlanPredicatePushdown(db, md, stmt.where));
    MAD_ASSIGN_OR_RETURN(const AtomType* root_at,
                         db.GetAtomType(md.root_node().type_name));
    // The index and the columns mirror the head, not the view.
    const AtomStore& store = root_at->occurrence();
    if (!store.HeadVisibleAt(view)) {
      plan.pushdown.seed.reset();
      plan.pushdown.scan_seed.reset();
    } else if (plan.pushdown.scan_seed.has_value()) {
      const Column* column =
          store.columns().column(plan.pushdown.scan_seed->value_slot);
      if (column == nullptr || column->mixed()) plan.pushdown.scan_seed.reset();
    }
    plan.node_programs.reserve(plan.pushdown.node_filters.size());
    for (const NodeFilter& filter : plan.pushdown.node_filters) {
      MAD_ASSIGN_OR_RETURN(
          expr::CompiledPredicate program,
          expr::CompiledPredicate::Compile(db, md, filter.predicate, view));
      plan.node_programs.push_back(std::move(program));
    }
    if (plan.pushdown.residual != nullptr) {
      MAD_ASSIGN_OR_RETURN(expr::CompiledPredicate program,
                           expr::CompiledPredicate::Compile(
                               db, md, plan.pushdown.residual, view));
      plan.residual_program.emplace(std::move(program));
    }
  }
  if (!stmt.select_all) {
    MAD_ASSIGN_OR_RETURN(plan.projection, TranslateProjection(md, stmt.items));
  }
  return plan;
}

std::string FormatSelectPlan(const SelectPlan& plan) {
  std::string out = "-- molecule algebra translation --\n";
  if (plan.recursive.has_value()) {
    const RecursiveDescription& rd = *plan.recursive;
    out += "closure[" + rd.atom_type + ", " + rd.link_type + ", " +
           (rd.direction == LinkDirection::kForward ? "forward" : "backward") +
           (rd.max_depth < 0
                ? ", unbounded]"
                : ", depth<=" + std::to_string(rd.max_depth) + "]") +
           "   -- recursive molecule type [Schö89]\n";
    if (plan.expansion != nullptr) {
      out += "expand-each[" + plan.expansion->ToString() +
             "]   -- per-member component molecule\n";
    }
  } else {
    const MoleculeDescription& md = *plan.description;
    out += "a[" + plan.name + ", {";
    for (size_t j = 0; j < md.links().size(); ++j) {
      const DirectedLink& dl = md.links()[j];
      out += (j > 0 ? ", <" : "<") + dl.link_type + ": " + dl.from +
             (dl.reverse ? " <~ " : " -> ") + dl.to + ">";
    }
    out += "}]({";
    for (size_t i = 0; i < md.nodes().size(); ++i) {
      out += (i > 0 ? ", " : "") + md.nodes()[i].label;
    }
    out += "})   -- molecule-type definition (Def. 8)\n";
  }

  if (plan.where != nullptr) {
    out += "Sigma[" + plan.where->ToString() +
           "]   -- molecule-type restriction (Def. 10)";
    if (plan.closure_program.has_value()) {
      out += "   -- compiled: " + plan.closure_program->Summary();
    }
    out += "\n";
    // How the Σ runs: per-node compiled filters inside the derivation, a
    // seeded root set, and the compiled residual.
    const PushdownPlan& pushdown = plan.pushdown;
    for (size_t i = 0; i < plan.node_programs.size(); ++i) {
      const NodeFilter& filter = pushdown.node_filters[i];
      out += "  push-down[" +
             plan.description->nodes()[filter.node_index].label +
             "]: " + filter.predicate->ToString() +
             "   -- compiled: " + plan.node_programs[i].Summary() + "\n";
    }
    if (pushdown.seed.has_value()) {
      out += "  seed-index[" + plan.description->root_node().type_name +
             "." + pushdown.seed->attribute +
             " = " + pushdown.seed->value.ToString() +
             "]   -- root fan-out from AttributeIndex\n";
    } else if (pushdown.scan_seed.has_value()) {
      out += "  seed-scan[" + plan.description->root_node().type_name +
             ": " + pushdown.scan_seed->display +
             "]   -- root fan-out from columnar kernel scan\n";
    }
    if (plan.residual_program.has_value()) {
      out += "  residual: " + pushdown.residual->ToString() +
             "   -- compiled: " + plan.residual_program->Summary() + "\n";
    }
  }
  if (plan.projection.has_value()) {
    const MoleculeProjectionSpec& spec = *plan.projection;
    out += "Pi[{";
    for (size_t i = 0; i < spec.keep_labels.size(); ++i) {
      out += (i > 0 ? ", " : "") + spec.keep_labels[i];
      auto it = spec.attributes.find(spec.keep_labels[i]);
      if (it == spec.attributes.end()) continue;
      out += "(";
      for (size_t j = 0; j < it->second.size(); ++j) {
        out += (j > 0 ? "," : "") + it->second[j];
      }
      out += ")";
    }
    out += "}]   -- molecule-type projection\n";
  }
  return out;
}

}  // namespace mql
}  // namespace mad
