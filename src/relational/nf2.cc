#include "relational/nf2.h"

#include <map>
#include <set>
#include <unordered_set>

namespace mad {
namespace nf2 {

std::string Nf2Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    const Nf2Attribute& attr = attributes_[i];
    if (attr.atomic()) {
      out += attr.name + ": " + DataTypeName(attr.type);
    } else {
      out += attr.name + ": " + attr.nested->ToString();
    }
  }
  out += ")";
  return out;
}

size_t NestedRelation::TotalAtomicFields() const {
  size_t total = 0;
  for (const auto& tuple : tuples_) {
    for (const Nf2Value& field : tuple) {
      if (field.nested == nullptr) {
        ++total;
      } else {
        total += field.nested->TotalAtomicFields();
      }
    }
  }
  return total;
}

std::string NestedRelation::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out;
  for (const auto& tuple : tuples_) {
    out += pad + "(";
    bool first = true;
    std::string nested_blocks;
    for (size_t i = 0; i < tuple.size(); ++i) {
      const Nf2Attribute& attr = schema_->attributes()[i];
      if (attr.atomic()) {
        if (!first) out += ", ";
        out += tuple[i].atomic.ToString();
        first = false;
      } else {
        nested_blocks += pad + "  " + attr.name + ":\n" +
                         tuple[i].nested->ToString(indent + 2);
      }
    }
    out += ")\n";
    out += nested_blocks;
  }
  return out;
}

namespace {

struct TreePlan {
  // Per node index: schema, out edges (edge index, child node index).
  std::vector<std::shared_ptr<const Nf2Schema>> schemas;
  std::vector<std::vector<std::pair<size_t, size_t>>> children;
  std::vector<const AtomType*> atom_types;
  std::vector<std::vector<size_t>> value_indexes;  // narrowing projection
};

Result<TreePlan> PlanTree(const Database& db, const MoleculeDescription& md) {
  // NF² needs a strict hierarchy: exactly one incoming edge per non-root
  // node.
  for (const MoleculeNode& node : md.nodes()) {
    size_t in_degree = md.InLinksOf(node.label).size();
    bool is_root = node.label == md.root_label();
    if ((is_root && in_degree != 0) || (!is_root && in_degree != 1)) {
      return Status::InvalidArgument(
          "molecule description is not a tree: node '" + node.label +
          "' has " + std::to_string(in_degree) +
          " incoming links; NF² supports only hierarchical structures");
    }
  }

  TreePlan plan;
  size_t n = md.nodes().size();
  plan.children.resize(n);
  plan.atom_types.resize(n);
  plan.value_indexes.resize(n);
  plan.schemas.resize(n);

  for (size_t j = 0; j < md.links().size(); ++j) {
    const DirectedLink& dl = md.links()[j];
    MAD_ASSIGN_OR_RETURN(size_t from, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(size_t to, md.NodeIndex(dl.to));
    plan.children[from].emplace_back(j, to);
  }

  // Build schemas bottom-up (reverse topological order).
  std::map<std::string, size_t> order_of;
  for (size_t i = 0; i < md.topo_order().size(); ++i) {
    order_of[md.topo_order()[i]] = i;
  }
  for (size_t oi = md.topo_order().size(); oi-- > 0;) {
    MAD_ASSIGN_OR_RETURN(size_t node_idx, md.NodeIndex(md.topo_order()[oi]));
    const MoleculeNode& node = md.nodes()[node_idx];
    MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(node.type_name));
    plan.atom_types[node_idx] = at;

    auto schema = std::make_shared<Nf2Schema>();
    if (node.attributes.has_value()) {
      for (const std::string& attr : *node.attributes) {
        MAD_ASSIGN_OR_RETURN(size_t idx, at->description().IndexOf(attr));
        plan.value_indexes[node_idx].push_back(idx);
        schema->AddAtomic(attr, at->description().attribute(idx).type);
      }
    } else {
      for (size_t i = 0; i < at->description().attribute_count(); ++i) {
        plan.value_indexes[node_idx].push_back(i);
        schema->AddAtomic(at->description().attribute(i).name,
                          at->description().attribute(i).type);
      }
    }
    for (const auto& [edge_idx, child_idx] : plan.children[node_idx]) {
      schema->AddNested(md.nodes()[child_idx].label,
                        plan.schemas[child_idx]);
    }
    plan.schemas[node_idx] = std::move(schema);
  }
  return plan;
}

/// Builds the nested tuple for `atom` at `node_idx` of one molecule,
/// duplicating shared children per parent (NF² has no sharing).
Result<std::vector<Nf2Value>> BuildTuple(
    const TreePlan& plan, const MoleculeDescription& md, MoleculeView m,
    size_t node_idx, AtomId atom_id, const Nf2ConversionOptions& options,
    Nf2ConversionStats* stats,
    std::map<std::pair<size_t, uint64_t>, int>* materialization_count) {
  const AtomType* at = plan.atom_types[node_idx];
  const Atom* atom = at->occurrence().Find(atom_id);
  if (atom == nullptr) {
    return Status::Internal("molecule atom missing from store");
  }
  auto key = std::make_pair(node_idx, atom_id.value);
  int& count = (*materialization_count)[key];
  ++count;
  ++stats->materialized_atoms;
  if (count == 1) ++stats->distinct_atoms;
  if (count > 1 && !options.allow_duplication) {
    return Status::ConstraintViolation(
        "shared subobject cannot be represented in NF² without duplication");
  }

  std::vector<Nf2Value> tuple;
  for (size_t idx : plan.value_indexes[node_idx]) {
    tuple.push_back(Nf2Value{atom->values[idx], nullptr});
  }
  for (const auto& [edge_idx, child_idx] : plan.children[node_idx]) {
    auto nested =
        std::make_shared<NestedRelation>(plan.schemas[child_idx]);
    for (const MoleculeLink& link : m.links()) {
      if (link.edge_index != edge_idx || link.parent != atom_id) continue;
      MAD_ASSIGN_OR_RETURN(
          std::vector<Nf2Value> child_tuple,
          BuildTuple(plan, md, m, child_idx, link.child, options, stats,
                     materialization_count));
      nested->AddTuple(std::move(child_tuple));
    }
    tuple.push_back(Nf2Value{Value(), std::move(nested)});
  }
  return tuple;
}

}  // namespace

Result<NestedRelation> MoleculeTypeToNf2(const Database& db,
                                         const MoleculeType& mt,
                                         const Nf2ConversionOptions& options,
                                         Nf2ConversionStats* stats) {
  const MoleculeDescription& md = mt.description();
  MAD_ASSIGN_OR_RETURN(TreePlan plan, PlanTree(db, md));
  MAD_ASSIGN_OR_RETURN(size_t root_idx, md.NodeIndex(md.root_label()));

  Nf2ConversionStats local;
  std::map<std::pair<size_t, uint64_t>, int> materialization_count;

  NestedRelation out(plan.schemas[root_idx]);
  for (MoleculeView m : mt.molecules()) {
    MAD_ASSIGN_OR_RETURN(
        std::vector<Nf2Value> tuple,
        BuildTuple(plan, md, m, root_idx, m.root(), options, &local,
                   &materialization_count));
    out.AddTuple(std::move(tuple));
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace nf2
}  // namespace mad
