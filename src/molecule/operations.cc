#include "molecule/operations.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "expr/compile.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mad {

namespace {

Status CheckName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("molecule type name must be non-empty");
  }
  return Status::OK();
}

Status CheckCompatible(const MoleculeType& left, const MoleculeType& right) {
  if (left.description() != right.description()) {
    return Status::InvalidArgument(
        "molecule-type operands must have identical descriptions: '" +
        left.description().ToString() + "' vs '" +
        right.description().ToString() + "'");
  }
  return Status::OK();
}

/// Molecules under set semantics, for Ω and Δ.
struct FingerprintOf {
  size_t operator()(MoleculeView m) const { return m.Fingerprint(); }
};
using MoleculeLookup = std::unordered_set<MoleculeView, FingerprintOf>;

}  // namespace

Result<MoleculeType> RestrictMolecules(const Database& db,
                                       const MoleculeType& mt,
                                       const expr::ExprPtr& predicate,
                                       std::string result_name,
                                       std::optional<ReadView> view) {
  MAD_RETURN_IF_ERROR(CheckName(result_name));
  static Counter& ops = Registry::Global().GetCounter("molecule_ops.sigma");
  ops.Increment();
  ScopedSpan span("sigma", [&] {
    return predicate == nullptr ? std::string("<null>") : predicate->ToString();
  });
  span.set_rows_in(static_cast<int64_t>(mt.size()));
  MAD_ASSIGN_OR_RETURN(
      expr::CompiledPredicate program,
      expr::CompiledPredicate::Compile(db, mt.description(), predicate, view));

  const MoleculeSet& molecules = mt.molecules();
  std::vector<char> verdicts(molecules.size(), 0);
  expr::CompiledPredicate::Scratch scratch;
  for (size_t i = 0; i < molecules.size(); ++i) {
    MAD_ASSIGN_OR_RETURN(bool hit, program.EvalMolecule(molecules[i], scratch));
    verdicts[i] = hit ? 1 : 0;
  }
  MoleculeSet kept = molecules.Subset(verdicts);
  span.set_rows_out(static_cast<int64_t>(kept.size()));
  return MoleculeType(std::move(result_name), mt.description(),
                      std::move(kept));
}

Result<MoleculeType> ProjectMolecules(const Database& db, MoleculeType mt,
                                      const MoleculeProjectionSpec& spec,
                                      std::string result_name) {
  MAD_RETURN_IF_ERROR(CheckName(result_name));
  static Counter& ops = Registry::Global().GetCounter("molecule_ops.pi");
  ops.Increment();
  ScopedSpan span("pi");
  span.set_rows_in(static_cast<int64_t>(mt.size()));
  span.set_rows_out(static_cast<int64_t>(mt.size()));
  const MoleculeDescription& md = mt.description();

  std::unordered_set<std::string> keep(spec.keep_labels.begin(),
                                       spec.keep_labels.end());
  if (keep.size() != spec.keep_labels.size()) {
    return Status::InvalidArgument("projection repeats a node label");
  }
  for (const std::string& label : spec.keep_labels) {
    if (!md.HasLabel(label)) {
      return Status::NotFound("projection keeps unknown node label '" + label +
                              "'");
    }
  }
  for (const auto& [label, attrs] : spec.attributes) {
    if (keep.count(label) == 0) {
      return Status::InvalidArgument(
          "attribute narrowing given for dropped node '" + label + "'");
    }
    (void)attrs;
  }

  // Rebuild the description: kept nodes (original order) with merged
  // narrowing, and the links between kept nodes.
  std::vector<MoleculeNode> nodes;
  std::vector<size_t> old_node_index;  // result node -> original node index
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    const MoleculeNode& node = md.nodes()[i];
    if (keep.count(node.label) == 0) continue;
    MoleculeNode out = node;
    auto it = spec.attributes.find(node.label);
    if (it != spec.attributes.end()) {
      // Narrow further: requested attributes must already be visible.
      if (node.attributes.has_value()) {
        for (const std::string& attr : it->second) {
          if (std::find(node.attributes->begin(), node.attributes->end(),
                        attr) == node.attributes->end()) {
            return Status::NotFound("attribute '" + attr +
                                    "' already projected away from node '" +
                                    node.label + "'");
          }
        }
      }
      out.attributes = it->second;
    }
    nodes.push_back(std::move(out));
    old_node_index.push_back(i);
  }

  std::vector<DirectedLink> links;
  std::vector<size_t> old_edge_index;  // result edge -> original edge index
  for (size_t j = 0; j < md.links().size(); ++j) {
    const DirectedLink& dl = md.links()[j];
    if (keep.count(dl.from) == 0 || keep.count(dl.to) == 0) continue;
    links.push_back(dl);
    old_edge_index.push_back(j);
  }

  auto new_md = MoleculeDescription::Create(db, std::move(nodes),
                                            std::move(links));
  if (!new_md.ok()) {
    return Status::InvalidArgument(
        "projection does not yield a valid molecule structure: " +
        new_md.status().message());
  }
  if (new_md->root_label() != md.root_label()) {
    return Status::InvalidArgument(
        "projection must preserve the root node '" + md.root_label() + "'");
  }

  // Every node and edge kept: the molecules are already the projection's.
  // Otherwise each one drops, in place, the atoms of dropped nodes and the
  // links along dropped edges, and renumbers the rest.
  MoleculeSet molecules = std::move(mt).TakeMolecules();
  if (old_node_index.size() < md.nodes().size() ||
      old_edge_index.size() < md.links().size()) {
    std::vector<uint32_t> edge_remap(md.links().size(),
                                     MoleculeSet::kDroppedEdge);
    for (size_t k = 0; k < old_edge_index.size(); ++k) {
      edge_remap[old_edge_index[k]] = static_cast<uint32_t>(k);
    }
    molecules.Project(old_node_index, edge_remap);
  }
  return MoleculeType(std::move(result_name), *std::move(new_md),
                      std::move(molecules));
}

Result<MoleculeType> UnionMolecules(const MoleculeType& left,
                                    const MoleculeType& right,
                                    std::string result_name) {
  MAD_RETURN_IF_ERROR(CheckName(result_name));
  MAD_RETURN_IF_ERROR(CheckCompatible(left, right));
  static Counter& ops = Registry::Global().GetCounter("molecule_ops.omega");
  ops.Increment();
  ScopedSpan span("omega");
  span.set_rows_in(static_cast<int64_t>(left.size() + right.size()));

  // Every left molecule, then each right one not seen before.
  MoleculeLookup seen(left.size() + right.size());
  for (MoleculeView m : left.molecules()) seen.insert(m);
  MoleculeSet merged = left.molecules();
  for (MoleculeView m : right.molecules()) {
    if (seen.insert(m).second) merged.Append(m);
  }
  span.set_rows_out(static_cast<int64_t>(merged.size()));
  return MoleculeType(std::move(result_name), left.description(),
                      std::move(merged));
}

Result<MoleculeType> DifferenceMolecules(const MoleculeType& left,
                                         const MoleculeType& right,
                                         std::string result_name) {
  MAD_RETURN_IF_ERROR(CheckName(result_name));
  MAD_RETURN_IF_ERROR(CheckCompatible(left, right));
  static Counter& ops = Registry::Global().GetCounter("molecule_ops.delta");
  ops.Increment();
  ScopedSpan span("delta");
  span.set_rows_in(static_cast<int64_t>(left.size()));

  MoleculeLookup drop(right.size());
  for (MoleculeView m : right.molecules()) drop.insert(m);
  std::vector<char> keep(left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    keep[i] = drop.count(left.molecules()[i]) == 0 ? 1 : 0;
  }
  MoleculeSet kept = left.molecules().Subset(keep);
  span.set_rows_out(static_cast<int64_t>(kept.size()));
  return MoleculeType(std::move(result_name), left.description(),
                      std::move(kept));
}

Result<MoleculeType> IntersectMolecules(const MoleculeType& left,
                                        const MoleculeType& right,
                                        std::string result_name) {
  static Counter& ops = Registry::Global().GetCounter("molecule_ops.psi");
  ops.Increment();
  ScopedSpan span("psi");
  span.set_rows_in(static_cast<int64_t>(left.size()));
  // Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)) — the paper's derived operator.
  MAD_ASSIGN_OR_RETURN(
      MoleculeType inner,
      DifferenceMolecules(left, right, result_name + "$inner"));
  return DifferenceMolecules(left, inner, std::move(result_name));
}

Result<MoleculeType> CartesianProductMolecules(Database& db,
                                               const MoleculeType& left,
                                               const MoleculeType& right,
                                               std::string result_name) {
  MAD_RETURN_IF_ERROR(CheckName(result_name));
  static Counter& ops = Registry::Global().GetCounter("molecule_ops.product");
  ops.Increment();
  ScopedSpan span("x");
  span.set_rows_in(static_cast<int64_t>(left.size() + right.size()));
  span.set_rows_out(static_cast<int64_t>(left.size() * right.size()));

  // Synthetic pair root: md_graph demands exactly one root (Def. 5), so the
  // product introduces a fresh atom type whose atoms couple operand roots.
  std::string pair_type = db.UniqueAtomTypeName(result_name);
  MAD_RETURN_IF_ERROR(db.DefineAtomType(pair_type, Schema()));
  const std::string& left_root_type = left.description().root_node().type_name;
  const std::string& right_root_type =
      right.description().root_node().type_name;
  std::string left_link = db.UniqueLinkTypeName(result_name + "-left");
  std::string right_link = db.UniqueLinkTypeName(result_name + "-right");
  MAD_RETURN_IF_ERROR(db.DefineLinkType(left_link, pair_type, left_root_type));
  MAD_RETURN_IF_ERROR(
      db.DefineLinkType(right_link, pair_type, right_root_type));

  // Node list: pair root + left nodes + right nodes (labels de-collided).
  std::unordered_set<std::string> labels;
  std::string pair_label = result_name;
  while (left.description().HasLabel(pair_label) ||
         right.description().HasLabel(pair_label)) {
    pair_label += "#";
  }
  labels.insert(pair_label);

  std::vector<MoleculeNode> nodes;
  nodes.push_back(MoleculeNode{pair_type, pair_label, std::nullopt});
  for (const MoleculeNode& node : left.description().nodes()) {
    nodes.push_back(node);
    labels.insert(node.label);
  }
  std::map<std::string, std::string> right_label_map;
  for (const MoleculeNode& node : right.description().nodes()) {
    MoleculeNode out = node;
    int suffix = 2;
    while (labels.count(out.label) > 0) {
      out.label = node.label + "#" + std::to_string(suffix++);
    }
    labels.insert(out.label);
    right_label_map[node.label] = out.label;
    nodes.push_back(std::move(out));
  }

  // Edge list: the two pair links, then left edges, then right edges.
  std::vector<DirectedLink> links;
  links.push_back(DirectedLink{
      left_link, pair_label, left.description().root_label(), false});
  links.push_back(
      DirectedLink{right_link, pair_label,
                   right_label_map.at(right.description().root_label()),
                   false});
  for (const DirectedLink& dl : left.description().links()) {
    links.push_back(dl);
  }
  for (const DirectedLink& dl : right.description().links()) {
    DirectedLink out = dl;
    out.from = right_label_map.at(dl.from);
    out.to = right_label_map.at(dl.to);
    links.push_back(out);
  }

  const uint32_t left_edges =
      static_cast<uint32_t>(left.description().links().size());

  // Couple every pair of operand molecules under a fresh pair atom.
  MoleculeSet molecules(nodes.size());
  auto add_groups = [&](MoleculeView m) {
    for (size_t i = 0; i < m.node_count(); ++i) {
      for (AtomId id : m.AtomsOf(i)) molecules.AddAtom(id);
      molecules.CloseGroup();
    }
  };
  auto add_links = [&](MoleculeView m, uint32_t first_edge) {
    for (const MoleculeLink& link : m.links()) {
      molecules.AddLink(MoleculeLink{first_edge + link.edge_index, link.parent,
                                     link.child});
    }
  };
  for (MoleculeView m1 : left.molecules()) {
    for (MoleculeView m2 : right.molecules()) {
      MAD_ASSIGN_OR_RETURN(AtomId pair_atom, db.InsertAtom(pair_type, {}));
      MAD_RETURN_IF_ERROR(db.InsertLink(left_link, pair_atom, m1.root()));
      MAD_RETURN_IF_ERROR(db.InsertLink(right_link, pair_atom, m2.root()));

      molecules.StartMolecule(pair_atom);
      molecules.AddAtom(pair_atom);
      molecules.CloseGroup();
      add_groups(m1);
      add_groups(m2);
      molecules.AddLink(MoleculeLink{0, pair_atom, m1.root()});
      molecules.AddLink(MoleculeLink{1, pair_atom, m2.root()});
      add_links(m1, 2);
      add_links(m2, 2 + left_edges);
      molecules.CloseMolecule();
    }
  }

  MAD_ASSIGN_OR_RETURN(
      MoleculeDescription md,
      MoleculeDescription::Create(db, std::move(nodes), std::move(links)));
  return MoleculeType(std::move(result_name), std::move(md),
                      std::move(molecules));
}

}  // namespace mad
