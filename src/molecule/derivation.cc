#include "molecule/derivation.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "expr/compile.h"
#include "util/digraph.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mad {

// ---- Description resolution ----------------------------------------------

Result<DerivationEngine> DerivationEngine::Create(const Database& db,
                                                 const MoleculeDescription& md,
                                                 DerivationOptions options) {
  DerivationEngine engine;
  engine.options_ = std::move(options);
  const std::optional<ReadView>& view = engine.options_.view;
  const size_t node_count = md.nodes().size();
  engine.nodes_.resize(node_count);
  engine.in_edges_.resize(node_count);
  engine.out_edges_.resize(node_count);

  for (size_t i = 0; i < node_count; ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    NodeSnapshot& node = engine.nodes_[i];
    node.store = &at->occurrence();
    node.pinned = view.has_value() && !node.store->HeadVisibleAt(*view);
    const std::vector<size_t>& ins = md.InLinksOf(md.nodes()[i].label);
    engine.in_edges_[i].assign(ins.begin(), ins.end());
    const std::vector<size_t>& outs = md.OutLinksOf(md.nodes()[i].label);
    engine.out_edges_[i].assign(outs.begin(), outs.end());
  }

  MAD_ASSIGN_OR_RETURN(engine.root_node_, md.NodeIndex(md.root_label()));
  engine.root_type_name_ = md.root_node().type_name;

  engine.node_order_.reserve(md.topo_order().size());
  for (const std::string& label : md.topo_order()) {
    MAD_ASSIGN_OR_RETURN(size_t idx, md.NodeIndex(label));
    engine.node_order_.push_back(idx);
  }

  engine.edges_.reserve(md.links().size());
  for (const DirectedLink& dl : md.links()) {
    EdgeSnapshot edge;
    MAD_ASSIGN_OR_RETURN(edge.from_node, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(edge.to_node, md.NodeIndex(dl.to));
    MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(dl.link_type));
    edge.store = &lt->occurrence();
    edge.direction =
        dl.reverse ? LinkDirection::kBackward : LinkDirection::kForward;
    edge.pinned = view.has_value() && !edge.store->HeadVisibleAt(*view);
    engine.edges_.push_back(std::move(edge));
  }

  // Pushed-down qualification: rearrange the filters to node order and note
  // which nodes must publish dense rows for some program's binding loops.
  engine.filters_by_node_.assign(node_count, nullptr);
  engine.needs_rows_.assign(node_count, false);
  auto adopt = [&](const expr::CompiledPredicate* program) -> Status {
    if (program->node_count() != node_count) {
      return Status::InvalidArgument(
          "pushed predicate program was compiled against a different "
          "description");
    }
    for (size_t n : program->loop_nodes()) engine.needs_rows_[n] = true;
    engine.filtering_ = true;
    return Status::OK();
  };
  for (const auto& [node_idx, program] : engine.options_.node_filters) {
    if (program == nullptr) continue;
    if (node_idx >= node_count) {
      return Status::InvalidArgument("pushed filter names node index " +
                                     std::to_string(node_idx) +
                                     " outside the description");
    }
    if (engine.filters_by_node_[node_idx] != nullptr) {
      return Status::InvalidArgument(
          "node '" + md.nodes()[node_idx].label +
          "' has more than one pushed filter (conjoin them instead)");
    }
    MAD_RETURN_IF_ERROR(adopt(program));
    engine.filters_by_node_[node_idx] = program;
  }
  if (engine.options_.residual != nullptr) {
    MAD_RETURN_IF_ERROR(adopt(engine.options_.residual));
  }
  return engine;
}

// ---- Snapshot growth -------------------------------------------------------

void DerivationEngine::NodeSnapshot::Touch(
    const std::optional<ReadView>& view) {
  if (touched) return;
  touched = true;
  if (pinned) {
    // Epoch-pinned path: freeze exactly the versions visible at the view.
    visible = store->SnapshotAt(*view);
    visible_position.reserve(visible.size());
    for (size_t k = 0; k < visible.size(); ++k) {
      visible_position.emplace(visible[k]->id, static_cast<uint32_t>(k));
    }
  }
  dense_of.assign(pinned ? visible.size() : store->size(), kUnadmitted);
}

std::optional<size_t> DerivationEngine::NodeSnapshot::PositionOf(
    AtomId id) const {
  if (!pinned) return store->PositionOf(id);
  auto it = visible_position.find(id);
  if (it == visible_position.end()) return std::nullopt;
  return it->second;
}

uint32_t DerivationEngine::NodeSnapshot::Admit(size_t position) {
  uint32_t& dense = dense_of[position];
  if (dense == kUnadmitted) {
    dense = static_cast<uint32_t>(ids.size());
    const Atom* row = pinned ? visible[position] : &store->atoms()[position];
    ids.push_back(row->id);
    rows.push_back(row);
  }
  return dense;
}

void DerivationEngine::Grow() {
  // A node's admissions come only from edges into it, and every such edge
  // starts at an earlier node in topological order: one pass suffices.
  for (size_t node_idx : node_order_) {
    const NodeSnapshot& from = nodes_[node_idx];
    for (uint32_t edge_idx : out_edges_[node_idx]) {
      EdgeSnapshot& edge = edges_[edge_idx];
      size_t r = edge.offsets.size() - 1;
      if (r == from.ids.size()) continue;
      NodeSnapshot& to = nodes_[edge.to_node];
      to.Touch(options_.view);
      auto admit = [&](AtomId partner) {
        if (std::optional<size_t> position = to.PositionOf(partner)) {
          edge.targets.push_back(to.Admit(*position));
        }
      };
      for (; r < from.ids.size(); ++r) {
        const AtomId id = from.ids[r];
        if (edge.pinned) {
          const ReadView& view = *options_.view;
          for (AtomId p : edge.store->PartnersAt(id, edge.direction, view)) {
            admit(p);
          }
        } else {
          for (AtomId p : edge.store->Partners(id, edge.direction)) {
            admit(p);
          }
        }
        edge.offsets.push_back(edge.targets.size());
      }
    }
  }
}

// ---- Per-call scratch -----------------------------------------------------

/// Epoch-stamped scratch, one instance per derive call: sized once to the
/// snapshot's admitted atoms, then reused across every root without
/// clearing — stale entries are dead because their stamp differs from the
/// current epoch/token.
struct DerivationEngine::Workspace {
  struct NodeScratch {
    std::vector<uint64_t> edge_token;    // last (epoch, edge) that saw the atom
    std::vector<uint64_t> hit_epoch;     // epoch of first discovery
    std::vector<uint32_t> hit_count;     // in-edges that reached it this epoch
    std::vector<uint64_t> member_epoch;  // epoch when accepted as contained
    std::vector<uint32_t> group;         // contained atoms, derivation order
    std::vector<uint32_t> order;         // candidate discovery order
  };
  std::vector<NodeScratch> nodes;
  uint64_t epoch = 0;
  size_t atoms_visited = 0;
  size_t links_scanned = 0;
  size_t rejected = 0;
  // Pushed-qualification state: one span per description node (published as
  // each group completes), dense-row buffers for looped nodes, and the
  // reusable program scratch. All empty when no filters are pushed.
  std::vector<expr::CompiledPredicate::AtomSpan> spans;
  std::vector<std::vector<const Atom*>> row_buf;
  expr::CompiledPredicate::Scratch scratch;
};

DerivationEngine::Workspace DerivationEngine::MakeWorkspace() const {
  Workspace ws;
  ws.nodes.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const size_t occ = nodes_[i].ids.size();
    ws.nodes[i].edge_token.assign(occ, 0);
    ws.nodes[i].hit_epoch.assign(occ, 0);
    ws.nodes[i].hit_count.assign(occ, 0);
    ws.nodes[i].member_epoch.assign(occ, 0);
  }
  if (filtering_) {
    ws.spans.resize(nodes_.size());
    ws.row_buf.resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (needs_rows_[i]) ws.row_buf[i].reserve(nodes_[i].ids.size());
    }
  }
  return ws;
}

// ---- Derivation of one molecule (Def. 6) ----------------------------------

/// Publishes a completed group to the pushed-qualification spans and runs
/// the node's filter, if any. Returns false to reject the molecule. Called
/// only when filtering: the span array always reflects every group
/// completed so far this epoch (a program for node i references only node
/// i, and the residual runs when all groups are complete).
Result<bool> DerivationEngine::CompleteNode(size_t node_idx,
                                            Workspace& ws) const {
  expr::CompiledPredicate::AtomSpan& span = ws.spans[node_idx];
  const std::vector<uint32_t>& group = ws.nodes[node_idx].group;
  span.size = group.size();
  if (needs_rows_[node_idx]) {
    std::vector<const Atom*>& buf = ws.row_buf[node_idx];
    buf.clear();
    const std::vector<const Atom*>& rows = nodes_[node_idx].rows;
    for (uint32_t member : group) buf.push_back(rows[member]);
    span.data = buf.data();
  }
  const expr::CompiledPredicate* filter = filters_by_node_[node_idx];
  if (filter == nullptr) return true;
  return filter->Eval(ws.spans.data(), ws.scratch);
}

/// Grows the maximal molecule for one root atom (the `contained`/`total`
/// semantics of Def. 6). Nodes are processed in topological order, so every
/// parent group is complete before its children are computed; an atom joins
/// a node's group iff it has a contained parent through *every* incoming
/// directed link type (conjunctive ∀-semantics). The loop runs entirely on
/// dense indexes over the grown CSR snapshot: no hashing, no lookups.
///
/// Pushed filters run as each group completes — a subtree that cannot
/// qualify is pruned before its descendants expand — and the residual
/// program runs before materialization. Rejections return nullopt.
Result<std::optional<Molecule>> DerivationEngine::DeriveOne(
    uint32_t root_dense, Workspace& ws) const {
  const uint64_t epoch = ++ws.epoch;
  const uint64_t token_base = epoch * edges_.size();
  for (Workspace::NodeScratch& ns : ws.nodes) ns.group.clear();
  if (filtering_) {
    for (expr::CompiledPredicate::AtomSpan& span : ws.spans) {
      span = expr::CompiledPredicate::AtomSpan{};
    }
  }

  Workspace::NodeScratch& root_scratch = ws.nodes[root_node_];
  root_scratch.group.push_back(root_dense);
  root_scratch.member_epoch[root_dense] = epoch;
  ws.atoms_visited += 1;
  if (filtering_) {
    MAD_ASSIGN_OR_RETURN(bool keep, CompleteNode(root_node_, ws));
    if (!keep) {
      ++ws.rejected;
      return std::optional<Molecule>();
    }
  }

  for (size_t oi = 1; oi < node_order_.size(); ++oi) {
    const size_t node_idx = node_order_[oi];
    Workspace::NodeScratch& ns = ws.nodes[node_idx];
    const std::vector<uint32_t>& ins = in_edges_[node_idx];
    ns.order.clear();

    for (uint32_t edge_idx : ins) {
      const uint64_t token = token_base + edge_idx;
      const EdgeSnapshot& edge = edges_[edge_idx];
      for (uint32_t parent : ws.nodes[edge.from_node].group) {
        const size_t row_begin = edge.offsets[parent];
        const size_t row_end = edge.offsets[parent + 1];
        ws.links_scanned += row_end - row_begin;
        for (size_t k = row_begin; k < row_end; ++k) {
          const uint32_t target = edge.targets[k];
          if (ns.edge_token[target] == token) continue;  // dedup per edge
          ns.edge_token[target] = token;
          if (ns.hit_epoch[target] != epoch) {
            ns.hit_epoch[target] = epoch;
            ns.hit_count[target] = 1;
            ns.order.push_back(target);
          } else {
            ++ns.hit_count[target];
          }
        }
      }
    }
    ws.atoms_visited += ns.order.size();
    for (uint32_t candidate : ns.order) {
      if (ns.hit_count[candidate] == ins.size()) {
        ns.group.push_back(candidate);
        ns.member_epoch[candidate] = epoch;
      }
    }
    if (filtering_) {
      MAD_ASSIGN_OR_RETURN(bool keep, CompleteNode(node_idx, ws));
      if (!keep) {
        ++ws.rejected;
        return std::optional<Molecule>();
      }
    }
  }

  if (options_.residual != nullptr) {
    MAD_ASSIGN_OR_RETURN(bool keep,
                         options_.residual->Eval(ws.spans.data(), ws.scratch));
    if (!keep) {
      ++ws.rejected;
      return std::optional<Molecule>();
    }
  }

  Molecule m(nodes_[root_node_].ids[root_dense], nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    std::vector<AtomId>& out = m.MutableAtomsOf(i);
    out.reserve(ws.nodes[i].group.size());
    for (uint32_t member : ws.nodes[i].group) {
      out.push_back(nodes_[i].ids[member]);
    }
  }

  // Record the molecule's links g: every underlying link between contained
  // atoms along a description edge.
  for (size_t edge_idx = 0; edge_idx < edges_.size(); ++edge_idx) {
    const EdgeSnapshot& edge = edges_[edge_idx];
    const Workspace::NodeScratch& to_scratch = ws.nodes[edge.to_node];
    const std::vector<AtomId>& from_ids = nodes_[edge.from_node].ids;
    const std::vector<AtomId>& to_ids = nodes_[edge.to_node].ids;
    for (uint32_t parent : ws.nodes[edge.from_node].group) {
      const size_t row_begin = edge.offsets[parent];
      const size_t row_end = edge.offsets[parent + 1];
      ws.links_scanned += row_end - row_begin;
      for (size_t k = row_begin; k < row_end; ++k) {
        const uint32_t target = edge.targets[k];
        if (to_scratch.member_epoch[target] == epoch) {
          m.AddLink(MoleculeLink{edge_idx, from_ids[parent], to_ids[target]});
        }
      }
    }
  }
  return std::optional<Molecule>(std::move(m));
}

// ---- Fan-out over the roots ----------------------------------------------

Result<std::vector<Molecule>> DerivationEngine::FanOut(
    const std::vector<uint32_t>& roots, DerivationStats* stats) const {
  // One span covers the whole fan-out; the per-root loop stays span-free
  // (it aggregates into DerivationStats instead).
  ScopedSpan span("derive");
  span.set_rows_in(static_cast<int64_t>(roots.size()));

  const auto start = std::chrono::steady_clock::now();
  Workspace ws = MakeWorkspace();
  // Roots are derived in order, so the output is root order; a filter
  // rejection derives no molecule, and the first evaluation error wins.
  std::vector<Molecule> molecules;
  molecules.reserve(roots.size());
  for (uint32_t root : roots) {
    MAD_ASSIGN_OR_RETURN(std::optional<Molecule> m, DeriveOne(root, ws));
    if (m.has_value()) molecules.push_back(std::move(*m));
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (stats != nullptr) {
    *stats = DerivationStats{};
    stats->roots = roots.size();
    stats->atoms_visited = ws.atoms_visited;
    stats->links_scanned = ws.links_scanned;
    stats->molecules_rejected = ws.rejected;
    stats->wall_ms = wall_ms;
  }

  // Fold the run into the process-wide registry (static refs: the name
  // lookup happens once, the updates are relaxed atomics).
  static Counter& roots_counter =
      Registry::Global().GetCounter("derivation.roots");
  static Counter& atoms_counter =
      Registry::Global().GetCounter("derivation.atoms_visited");
  static Counter& links_counter =
      Registry::Global().GetCounter("derivation.links_scanned");
  static Counter& rejected_counter =
      Registry::Global().GetCounter("derivation.rejected");
  static Histogram& wall_hist =
      Registry::Global().GetHistogram("derivation.fanout_us");
  roots_counter.Add(roots.size());
  atoms_counter.Add(ws.atoms_visited);
  links_counter.Add(ws.links_scanned);
  rejected_counter.Add(ws.rejected);
  wall_hist.Observe(static_cast<uint64_t>(wall_ms * 1000.0));

  span.set_rows_out(static_cast<int64_t>(molecules.size()));
  return molecules;
}

Result<std::vector<Molecule>> DerivationEngine::DeriveAll(
    DerivationStats* stats) {
  NodeSnapshot& root = nodes_[root_node_];
  root.Touch(options_.view);
  std::vector<uint32_t> roots(root.dense_of.size());
  for (size_t position = 0; position < roots.size(); ++position) {
    roots[position] = root.Admit(position);
  }
  Grow();
  return FanOut(roots, stats);
}

Result<std::vector<Molecule>> DerivationEngine::DeriveForRoots(
    const std::vector<AtomId>& roots, DerivationStats* stats) {
  // Validate every root before deriving anything, and report all offenders
  // in one message instead of failing at the first mid-loop.
  NodeSnapshot& root = nodes_[root_node_];
  root.Touch(options_.view);
  std::vector<uint32_t> dense_roots;
  dense_roots.reserve(roots.size());
  std::string bad;
  size_t bad_count = 0;
  for (AtomId id : roots) {
    std::optional<size_t> position = root.PositionOf(id);
    if (!position.has_value()) {
      bad += bad.empty() ? "#" : ", #";
      bad += std::to_string(id.value);
      ++bad_count;
      continue;
    }
    dense_roots.push_back(root.Admit(*position));
  }
  if (bad_count > 0) {
    return Status::NotFound(
        (bad_count == 1 ? "atom " + bad + " is" : "atoms " + bad + " are") +
        " not in root atom type '" + root_type_name_ + "'");
  }
  Grow();
  return FanOut(dense_roots, stats);
}

Result<Molecule> DerivationEngine::DeriveFor(AtomId root,
                                             DerivationStats* stats) {
  NodeSnapshot& root_node = nodes_[root_node_];
  root_node.Touch(options_.view);
  std::optional<size_t> position = root_node.PositionOf(root);
  if (!position.has_value()) {
    return Status::NotFound("atom #" + std::to_string(root.value) +
                            " is not in root atom type '" + root_type_name_ +
                            "'");
  }
  const uint32_t root_dense = root_node.Admit(*position);
  Grow();
  Workspace ws = MakeWorkspace();
  MAD_ASSIGN_OR_RETURN(std::optional<Molecule> m, DeriveOne(root_dense, ws));
  if (!m.has_value()) {
    return Status::NotFound("molecule #" + std::to_string(root.value) +
                            " was rejected by pushed-down qualification");
  }
  if (stats != nullptr) {
    *stats = DerivationStats{};
    stats->roots = 1;
    stats->atoms_visited = ws.atoms_visited;
    stats->links_scanned = ws.links_scanned;
  }
  return *std::move(m);
}

// ---- Free-function façade --------------------------------------------------

Result<std::vector<Molecule>> DeriveMolecules(const Database& db,
                                              const MoleculeDescription& md,
                                              const DerivationOptions& options,
                                              DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  return engine.DeriveAll(stats);
}

Result<Molecule> DeriveMoleculeFor(const Database& db,
                                   const MoleculeDescription& md,
                                   AtomId root) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md));
  return engine.DeriveFor(root);
}

Result<std::vector<Molecule>> DeriveMoleculesForRoots(
    const Database& db, const MoleculeDescription& md,
    const std::vector<AtomId>& roots, const DerivationOptions& options,
    DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  return engine.DeriveForRoots(roots, stats);
}

Result<MoleculeType> DefineMoleculeType(const Database& db, std::string name,
                                        MoleculeDescription md,
                                        const DerivationOptions& options,
                                        DerivationStats* stats) {
  if (name.empty()) {
    return Status::InvalidArgument("molecule type name must be non-empty");
  }
  MAD_ASSIGN_OR_RETURN(std::vector<Molecule> molecules,
                       DeriveMolecules(db, md, options, stats));
  return MoleculeType(std::move(name), std::move(md), std::move(molecules));
}

Status ValidateMolecule(const Database& db, const MoleculeDescription& md,
                        const Molecule& molecule) {
  if (molecule.node_count() != md.nodes().size()) {
    return Status::InvalidArgument(
        "molecule has a different node count than its description");
  }
  MAD_ASSIGN_OR_RETURN(size_t root_idx, md.NodeIndex(md.root_label()));

  // The root group holds exactly the root atom.
  const std::vector<AtomId>& root_group = molecule.AtomsOf(root_idx);
  if (root_group.size() != 1 || root_group[0] != molecule.root()) {
    return Status::ConstraintViolation(
        "molecule root group must hold exactly the root atom");
  }

  // Every atom exists under its node's atom type.
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    for (AtomId id : molecule.AtomsOf(i)) {
      if (!at->occurrence().Contains(id)) {
        return Status::ConstraintViolation(
            "molecule atom #" + std::to_string(id.value) +
            " is not in atom type '" + md.nodes()[i].type_name + "'");
      }
    }
  }

  // Every link is realised in the database with the right orientation and
  // connects contained atoms; build the instance graph along the way.
  Digraph instance;
  auto node_key = [](size_t node_idx, AtomId id) {
    return std::to_string(node_idx) + ":" + std::to_string(id.value);
  };
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    for (AtomId id : molecule.AtomsOf(i)) instance.AddNode(node_key(i, id));
  }
  for (const MoleculeLink& link : molecule.links()) {
    if (link.edge_index >= md.links().size()) {
      return Status::ConstraintViolation("molecule link has bad edge index");
    }
    const DirectedLink& dl = md.links()[link.edge_index];
    MAD_ASSIGN_OR_RETURN(size_t from_idx, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(size_t to_idx, md.NodeIndex(dl.to));
    if (!molecule.ContainsAtom(from_idx, link.parent) ||
        !molecule.ContainsAtom(to_idx, link.child)) {
      return Status::ConstraintViolation(
          "molecule link endpoints are not molecule atoms");
    }
    MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(dl.link_type));
    bool present = dl.reverse
                       ? lt->occurrence().Contains(link.child, link.parent)
                       : lt->occurrence().Contains(link.parent, link.child);
    if (!present) {
      return Status::ConstraintViolation(
          "molecule link is not present in link type '" + dl.link_type + "'");
    }
    MAD_RETURN_IF_ERROR(instance.AddEdge(dl.link_type,
                                         node_key(from_idx, link.parent),
                                         node_key(to_idx, link.child)));
  }

  // mv_graph: the instance graph is a coherent DAG rooted at the root atom.
  MAD_ASSIGN_OR_RETURN(std::string instance_root, instance.CheckRootedDag());
  if (instance_root != node_key(root_idx, molecule.root())) {
    return Status::ConstraintViolation(
        "molecule instance graph is not rooted at the root atom");
  }
  return Status::OK();
}

}  // namespace mad
